package web

import (
	"net/url"
	"testing"
)

// FuzzQueryGet holds query.Get to url.ParseQuery(raw).Get(key), the
// lookup every handler made before it, on any raw query and key.
func FuzzQueryGet(f *testing.F) {
	for _, seed := range [][2]string{
		{"f=0.5&fpw=32", "f"},
		{"f=0.5&fpw=32", "fpw"},
		{"f=0.5&fpw=32", "chip"},
		{"f=%30.5", "f"},
		{"f%3D=1&f=2", "f="},
		{"chip=a+b&f=1+2", "chip"},
		{"a+b=1", "a b"},
		{"f=1;fpw=2&f=3", "f"},
		{"f=1&f=2;x&f=3", "f"},
		{"f=%zz&f=2", "f"},
		{"f%zz=1&f%=2&f=3", "f"},
		{"f=%", "f"},
		{"f=1&f=2", "f"},
		{"&&f=1&&", "f"},
		{"f", "f"},
		{"f&f=2", "f"},
		{"=1&f", ""},
		{"backend=sim&backend=analytic", "backend"},
		{"stream=1", "stream"},
		{"%66=1", "f"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		want, _ := url.ParseQuery(raw)
		if got := query(raw).Get(key); got != want.Get(key) {
			t.Errorf("query(%q).Get(%q) = %q, url.ParseQuery gives %q", raw, key, got, want.Get(key))
		}
	})
}

// TestQueryGetAllocs pins the point of the reader: a lookup in a query
// that needs no unescaping allocates nothing.
func TestQueryGetAllocs(t *testing.T) {
	q := query("chip=snapdragon821&backend=analytic&f=0.35&fpw=128&stream=1")
	allocs := testing.AllocsPerRun(100, func() {
		for _, key := range []string{"chip", "serialized", "f", "dsp", "fpw", "words", "trials", "backend"} {
			q.Get(key)
		}
	})
	if allocs != 0 {
		t.Errorf("eight lookups allocate %v times, want 0", allocs)
	}
}
