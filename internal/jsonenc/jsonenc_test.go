package jsonenc

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"
)

// std is the reference: v through a json.Encoder, with or without
// SetIndent("", "  ").
func std(t *testing.T, v any, indent bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if indent {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.5e-7, 1e-6, math.Nextafter(1e-6, 0), 9.999999e-7,
		1e20, 1e21, math.Nextafter(1e21, 0), -1e21, 123456789012345678901.0, 1e-7, 1e-10, 1e-100,
		5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		3.3e9, 2.5e11, 1.0 / 3, 6.02214076e23, -7.5e-8,
	} {
		var w Writer
		w.Float(f)
		w.End()
		if want := std(t, f, false); !bytes.Equal(w.Bytes(), want) || w.Err() != nil {
			t.Errorf("Float(%v) = %q (err %v), want %q", f, w.Bytes(), w.Err(), want)
		}
	}
}

// TestFloatIntegerPathMatchesEncodingJSON covers the AppendInt path for
// exact integers below 2^53 and the values on both sides of its edges:
// −0, 2^53 itself, integers past it that only AppendFloat may shorten,
// and 'e' form from 1e21.
func TestFloatIntegerPathMatchesEncodingJSON(t *testing.T) {
	const p53 = 1 << 53
	fs := []float64{0, math.Copysign(0, -1), 1, -1, p53 - 1, -(p53 - 1), p53, -p53, p53 + 2, -(p53 + 2),
		1e15, 1e20, 1e21, 0.5}
	for k := 0; k < 64; k++ {
		for d := -3.0; d <= 3; d++ {
			v := math.Ldexp(1, k) + d
			fs = append(fs, v, -v)
		}
	}
	for _, f := range fs {
		var w Writer
		w.Float(f)
		w.End()
		if want := std(t, f, false); !bytes.Equal(w.Bytes(), want) || w.Err() != nil {
			t.Errorf("Float(%v) = %q (err %v), want %q", f, w.Bytes(), w.Err(), want)
		}
	}
}

func TestNonFiniteFloatError(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var w Writer
		w.Float(f)
		_, want := json.Marshal(f)
		if w.Err() == nil || want == nil || w.Err().Error() != want.Error() {
			t.Errorf("Float(%v): err %v, want %v", f, w.Err(), want)
		}
		var uve *json.UnsupportedValueError
		if !errors.As(w.Err(), &uve) {
			t.Errorf("Float(%v): error %T, want *json.UnsupportedValueError", f, w.Err())
		}
	}
}

func TestStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain", `quote " and \ backslash`, "<script>&amp;</script>", "tab\tnl\ncr\rbs\bff\f",
		"\x00\x01\x1f\x7f", "line\u2028para\u2029", "é ü 中文 😀", "bad \xff byte", "\xc3", "\xed\xa0\x80",
		"trailing \xe2\x80", "\ufffd real replacement", "snapdragon-835-sim", "fpw=512/f=0.5",
	} {
		checkString(t, s)
	}
	// Every byte alone and between copied runs, so each entry of the
	// copy-as-is table meets encoding/json.
	for b := 0; b <= 0xff; b++ {
		checkString(t, string([]byte{byte(b)}))
		checkString(t, "ab"+string([]byte{byte(b)})+"cd")
	}
}

// checkString requires String's bytes for s to be encoding/json's.
func checkString(t *testing.T, s string) {
	t.Helper()
	var w Writer
	w.String(s)
	w.End()
	if want := std(t, s, false); !bytes.Equal(w.Bytes(), want) {
		t.Errorf("String(%q) = %q, want %q", s, w.Bytes(), want)
	}
}

// FuzzString holds String to encoding/json on arbitrary bytes: invalid
// UTF-8, control and HTML-special bytes, U+2028 and U+2029 included.
func FuzzString(f *testing.F) {
	for _, s := range []string{
		"", "plain", `quote " and \ backslash`, "<script>&amp;</script>", "\x00\x1f\x7f",
		"line\u2028para\u2029", "é 中文 😀", "bad \xff byte", "\xed\xa0\x80", "snapdragon-835-sim",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkString(t, s)
	})
}

// TestLayoutMatchesEncodingJSON covers the indentation rules: nested and
// empty containers, in both layouts.
func TestLayoutMatchesEncodingJSON(t *testing.T) {
	type inner struct {
		A []float64 `json:"a"`
		B struct{}  `json:"b"`
	}
	type doc struct {
		X  string  `json:"x"`
		In []inner `json:"in"`
		E  []inner `json:"e"`
		N  *inner  `json:"n"`
	}
	v := doc{X: "x", In: []inner{{A: []float64{1, 2}}, {A: []float64{}}}, E: []inner{}}
	for _, indent := range []bool{false, true} {
		var w Writer
		w.Reset(indent)
		w.BeginObject()
		w.Key("x")
		w.String(v.X)
		w.Key("in")
		w.BeginArray()
		for _, in := range v.In {
			w.Element()
			w.BeginObject()
			w.Key("a")
			w.BeginArray()
			for _, f := range in.A {
				w.Element()
				w.Float(f)
			}
			w.EndArray()
			w.Key("b")
			w.BeginObject()
			w.EndObject()
			w.EndObject()
		}
		w.EndArray()
		w.Key("e")
		w.BeginArray()
		w.EndArray()
		w.Key("n")
		w.Null()
		w.EndObject()
		w.End()
		if want := std(t, v, indent); !bytes.Equal(w.Bytes(), want) {
			t.Errorf("indent=%v:\n got %s\nwant %s", indent, w.Bytes(), want)
		}
	}
}

// TestFragmentsMatchOneWriter encodes a document as a head, its array's
// elements in fragments split at every subset of element boundaries
// (written back to back into one writer), and a tail, and requires the concatenation to be the bytes one writer (and
// encoding/json) writes, in both layouts and for empty, one- and
// several-element arrays.
func TestFragmentsMatchOneWriter(t *testing.T) {
	type elem struct {
		I float64   `json:"i"`
		V []float64 `json:"v"`
	}
	type doc struct {
		A     string `json:"a"`
		Items []elem `json:"items"`
		Z     *elem  `json:"z"`
	}
	element := func(w *Writer, e elem) {
		w.Element()
		w.BeginObject()
		w.Key("i")
		w.Float(e.I)
		w.Key("v")
		w.BeginArray()
		for _, f := range e.V {
			w.Element()
			w.Float(f)
		}
		w.EndArray()
		w.EndObject()
	}
	tail := func(w *Writer) {
		w.EndArray()
		w.Key("z")
		w.Null()
		w.EndObject()
		w.End()
	}
	for _, n := range []int{0, 1, 2, 4} {
		v := doc{A: "a", Items: []elem{}}
		for k := 0; k < n; k++ {
			v.Items = append(v.Items, elem{I: float64(k), V: []float64{float64(k) + 0.5}})
		}
		for _, indent := range []bool{false, true} {
			var one Writer
			one.Reset(indent)
			one.BeginObject()
			one.Key("a")
			one.String(v.A)
			one.Key("items")
			one.BeginArray()
			head := len(one.Bytes())
			for _, e := range v.Items {
				element(&one, e)
			}
			tail(&one)
			if want := std(t, v, indent); !bytes.Equal(one.Bytes(), want) {
				t.Fatalf("n=%d indent=%v: one writer\n got %s\nwant %s", n, indent, one.Bytes(), want)
			}

			// The head writer goes on to write the tail, told that the
			// fragments filled the array; a fragment writer at the array's
			// depth writes the same tail.
			var env, tailFrag Writer
			env.Reset(indent)
			env.BeginObject()
			env.Key("a")
			env.String(v.A)
			env.Key("items")
			env.BeginArray()
			if n > 0 {
				env.MarkFilled()
			}
			tail(&env)
			tailFrag.Reset(indent)
			tailFrag.Fragment(2, n > 0)
			tail(&tailFrag)
			if !bytes.Equal(env.Bytes()[head:], tailFrag.Bytes()) {
				t.Errorf("n=%d indent=%v: tail %q, fragment tail %q", n, indent, env.Bytes()[head:], tailFrag.Bytes())
			}

			// Bit k-1 of cuts set: a fragment ends after element k.
			for cuts := 0; cuts < 1<<max(n-1, 0); cuts++ {
				// The fragments go to one writer, back to back, each
				// sent as its own byte range.
				got := append([]byte(nil), env.Bytes()[:head]...)
				var frag Writer
				frag.Reset(indent)
				lo := 0
				for k := 1; k <= n; k++ {
					if k < n && cuts&(1<<(k-1)) == 0 {
						continue
					}
					start := len(frag.Bytes())
					frag.Fragment(2, lo > 0)
					for _, e := range v.Items[lo:k] {
						element(&frag, e)
					}
					got = append(got, frag.Bytes()[start:]...)
					lo = k
				}
				got = append(got, env.Bytes()[head:]...)
				if !bytes.Equal(got, one.Bytes()) {
					t.Errorf("n=%d indent=%v cuts=%b:\n got %s\nwant %s", n, indent, cuts, got, one.Bytes())
				}
			}
		}
	}
}
