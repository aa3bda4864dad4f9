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
		var w Writer
		w.String(s)
		w.End()
		if want := std(t, s, false); !bytes.Equal(w.Bytes(), want) {
			t.Errorf("String(%q) = %q, want %q", s, w.Bytes(), want)
		}
	}
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
