package web

import (
	"fmt"
	"net/url"
	"strings"
	"testing"
)

// FuzzQueryGet holds query.Get to url.ParseQuery(raw).Get(key), the
// lookup every handler made before it, on any raw query and key. It holds
// the one-pass read to the same lookup for every key of a key set read
// together: /eval's eight keys, and key with the comma-separated keys of
// more, duplicates included.
func FuzzQueryGet(f *testing.F) {
	for _, seed := range [][3]string{
		{"f=0.5&fpw=32", "f", ""},
		{"f=0.5&fpw=32", "fpw", ""},
		{"f=0.5&fpw=32", "chip", ""},
		{"f=%30.5", "f", ""},
		{"f%3D=1&f=2", "f=", ""},
		{"chip=a+b&f=1+2", "chip", ""},
		{"a+b=1", "a b", ""},
		{"f=1;fpw=2&f=3", "f", ""},
		{"f=1&f=2;x&f=3", "f", ""},
		{"f=%zz&f=2", "f", ""},
		{"f%zz=1&f%=2&f=3", "f", ""},
		{"f=%", "f", ""},
		{"f=1&f=2", "f", ""},
		{"&&f=1&&", "f", ""},
		{"f", "f", ""},
		{"f&f=2", "f", ""},
		{"=1&f", "", ""},
		{"backend=sim&backend=analytic", "backend", ""},
		{"stream=1", "stream", ""},
		{"%66=1", "f", ""},
		{"f=1&fpw=2&chip=a&f=3", "f", "fpw,chip,f,words"},
		{"f=&f=2&dsp=%zz&dsp=1", "dsp", "f,dsp,f"},
		{"a+b=1&a%20b=2&a=3", "a b", "a,a b,b"},
		{"f=1&", "f", ""},
		{"f==1", "f", ""},
		{"f=1=2", "f", ""},
		{"f=1;2", "f", ""},
		{"f%41=1&f+=2", "fA", "f ,f"},
		{"f=1%2E5&fpw=3+2", "f", "fpw"},
		{"f=%2B1", "f", ""},
		{"=1", "", "f"},
		{"&=1", "", ""},
		{"f=%2541", "f", "f"},
		{"f=%zz&f=2", "f", "f"},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	// A 64-key set, the most one read takes, every key present.
	var pairs, more []string
	for i := 0; i < 64; i++ {
		pairs = append(pairs, fmt.Sprintf("k%d=%d", i, i))
		if i > 0 {
			more = append(more, fmt.Sprintf("k%d", i))
		}
	}
	f.Add(strings.Join(pairs, "&"), "k0", strings.Join(more, ","))
	f.Fuzz(func(t *testing.T, raw, key, more string) {
		want, _ := url.ParseQuery(raw)
		if got := query(raw).Get(key); got != want.Get(key) {
			t.Errorf("query(%q).Get(%q) = %q, url.ParseQuery gives %q", raw, key, got, want.Get(key))
		}
		for _, keys := range [][]string{evalKeys[:], append([]string{key}, strings.Split(more, ",")...)} {
			if len(keys) > 64 {
				continue
			}
			vals := make([]string, len(keys))
			query(raw).read(keys, vals)
			for i, k := range keys {
				if vals[i] != want.Get(k) {
					t.Errorf("query(%q).read(%q): key %q = %q, url.ParseQuery gives %q", raw, keys, k, vals[i], want.Get(k))
				}
			}
		}
	})
}

// TestQueryGetAllocs pins the point of the reader: reading /eval's keys
// from a query that needs no unescaping allocates nothing, one key at a
// time or all in one pass.
func TestQueryGetAllocs(t *testing.T) {
	q := query("chip=snapdragon821&backend=analytic&f=0.35&fpw=128&stream=1")
	allocs := testing.AllocsPerRun(100, func() {
		for _, key := range evalKeys {
			q.Get(key)
		}
	})
	if allocs != 0 {
		t.Errorf("eight lookups allocate %v times, want 0", allocs)
	}
	var form evalForm
	if allocs := testing.AllocsPerRun(100, func() { q.read(evalKeys[:], form[:]) }); allocs != 0 {
		t.Errorf("one pass over eight keys allocates %v times, want 0", allocs)
	}
	if form[keyChip] != "snapdragon821" || form[keyBackend] != "analytic" || form[keyF] != "0.35" || form[keyFPW] != "128" || form[keyDSP] != "" {
		t.Errorf("one pass read %q", form)
	}
}
