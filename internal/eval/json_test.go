package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"github.com/gables-model/gables/internal/jsonenc"
)

// stdOutcome is the reference encoding: o through a json.Encoder, compact
// or with SetIndent("", "  ").
func stdOutcome(o *Outcome, indent bool) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if indent {
		enc.SetIndent("", "  ")
	}
	err := enc.Encode(o)
	return buf.Bytes(), err
}

// checkAppendJSON requires AppendJSON to write exactly what encoding/json
// writes for o in both layouts, or fail with exactly its error.
func checkAppendJSON(t *testing.T, name string, o *Outcome) {
	t.Helper()
	var w jsonenc.Writer
	for _, indent := range []bool{false, true} {
		want, wantErr := stdOutcome(o, indent)
		w.Reset(indent)
		o.AppendJSON(&w)
		w.End()
		if wantErr != nil || w.Err() != nil {
			if wantErr == nil || w.Err() == nil || w.Err().Error() != wantErr.Error() {
				t.Errorf("%s (indent=%v): error %v, encoding/json error %v", name, indent, w.Err(), wantErr)
			}
			continue
		}
		if !bytes.Equal(w.Bytes(), want) {
			t.Errorf("%s (indent=%v):\n got %s\nwant %s", name, indent, w.Bytes(), want)
		}
	}
}

// TestAppendJSONCorpus encodes every differential-corpus answer from both
// production backends, plus the shapes the corpus does not reach (no IPs,
// an empty IP list, a confidence envelope, negative zero in omitempty
// fields, a nil outcome).
func TestAppendJSONCorpus(t *testing.T) {
	ctx := context.Background()
	for _, ev := range []Evaluator{NewAnalytic(), NewSim()} {
		for _, fx := range DefaultCorpus() {
			o, err := ev.Evaluate(ctx, fx.Query)
			if err != nil {
				t.Fatalf("%s/%s: %v", ev.Meta().Name, fx.Name, err)
			}
			checkAppendJSON(t, ev.Meta().Name+"/"+fx.Name, o)
		}
	}
	negZero := math.Copysign(0, -1)
	for name, o := range map[string]*Outcome{
		"zero":     {},
		"nil":      nil,
		"empty-ip": {Backend: "x", IPs: []IPOutcome{}},
		"neg-zero": {TieRatio: negZero, DRAMUtilization: negZero, Attainable: negZero},
		"confidence": {Backend: "surrogate", Fidelity: FidelityAnalytic, Attainable: 2.5e11, Makespan: 1e-7,
			Confidence: &Confidence{RelErrBound: 0.02, Lo: 2.45e11, Hi: 2.55e11, Bucket: "fpw=512/f=0.5", Efficiency: 0.97},
			IPs:        []IPOutcome{{IP: "GPU", Flops: 1e21, Bytes: 8e-7, Time: 1e-6, Rate: 3}}},
	} {
		checkAppendJSON(t, name, o)
	}
}

// FuzzAppendOutcome drives AppendJSON with arbitrary float bits and
// strings: finite values must encode byte-identically to encoding/json,
// and NaN or ±Inf anywhere must fail with its error.
func FuzzAppendOutcome(f *testing.F) {
	bits := math.Float64bits
	f.Add(bits(1.5), bits(0), bits(-0.0), bits(1e-6), bits(1e21), bits(3), "analytic", "CPU", "fpw=8/f=0.1")
	f.Add(bits(math.Copysign(0, -1)), bits(5e-324), bits(math.MaxFloat64), bits(-math.MaxFloat64),
		bits(math.Nextafter(1e-6, 0)), bits(math.Nextafter(1e21, 0)), "<&>", "  ", "\x00\x1f\xff")
	f.Add(bits(math.NaN()), bits(1), bits(1), bits(1), bits(1), bits(1), "", "", "")
	f.Add(bits(1), bits(1), bits(1), bits(1), bits(1), bits(math.Inf(-1)), "a", "b", "c")
	f.Add(bits(1), bits(math.Inf(1)), bits(1), bits(1), bits(1), bits(1), "\xc3", "\"\\", "é")
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g uint64, s1, s2, s3 string) {
		x := func(u uint64) float64 { return math.Float64frombits(u) }
		o := &Outcome{
			Backend: s1, Fidelity: Fidelity(s2), Attainable: x(a), Makespan: x(b), TotalFlops: x(c),
			Bottleneck: Bottleneck{Kind: s2, Name: s3}, TieRatio: x(d), DRAMUtilization: x(e),
			IPs: []IPOutcome{{IP: s3, Flops: x(g), Bytes: x(a), Time: x(d), Rate: x(e)}},
		}
		checkAppendJSON(t, "fuzz", o)
		o.Confidence = &Confidence{RelErrBound: x(e), Lo: x(g), Hi: x(b), Bucket: s1, Efficiency: x(c)}
		o.IPs = nil
		checkAppendJSON(t, "fuzz+confidence", o)
	})
}
