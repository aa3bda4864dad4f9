package surrogate

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"github.com/gables-model/gables/internal/eval"
)

// The surrogate's documented corpus bands (DESIGN.md §12): tighter than
// the analytic oracle's (the surrogate is *fitted to* the sim it is
// compared against), with every fast answer's confidence envelope required
// to actually contain the measured value.
const (
	// MaxCorpusMeanRelErr bounds the mean in-envelope attainable error.
	MaxCorpusMeanRelErr = 0.02
	// MaxCorpusMaxRelErr bounds the worst in-envelope attainable error.
	MaxCorpusMaxRelErr = 0.05
)

// TestSurrogateCorpus is the tier-1 accuracy pin: over the differential
// oracle's 16-fixture corpus, in-envelope fixtures must agree with sim
// within the surrogate bands (and inside their own confidence envelopes),
// and out-of-envelope fixtures must be routed to sim byte-identically.
func TestSurrogateCorpus(t *testing.T) {
	backend := New(Options{})
	simEv := eval.NewSim()
	ctx := context.Background()

	var sum, worst float64
	inEnv := 0
	for _, fx := range eval.DefaultCorpus() {
		cal, err := backend.Calibration(ctx, fx.Query.Chip)
		if err != nil {
			t.Fatalf("%s: %v", fx.Name, err)
		}
		got, err := backend.Evaluate(ctx, fx.Query)
		if err != nil {
			t.Fatalf("%s: %v", fx.Name, err)
		}
		want, err := simEv.Evaluate(ctx, fx.Query)
		if err != nil {
			t.Fatalf("%s: %v", fx.Name, err)
		}

		if cal.Check(fx.Query) != nil {
			// Out of envelope: the answer must be sim's, byte for byte.
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(want)
			if !bytes.Equal(gj, wj) {
				t.Errorf("%s: out-of-envelope answer diverges from sim:\nsurrogate: %s\nsim:       %s", fx.Name, gj, wj)
			}
			continue
		}

		inEnv++
		rel := math.Abs(got.Attainable-want.Attainable) / want.Attainable
		sum += rel
		worst = math.Max(worst, rel)
		if rel > MaxCorpusMaxRelErr {
			t.Errorf("%s: attainable rel err %.4f above band %.2f (surrogate %.4g, sim %.4g)",
				fx.Name, rel, MaxCorpusMaxRelErr, got.Attainable, want.Attainable)
		}
		if got.Bottleneck != want.Bottleneck {
			t.Errorf("%s: bottleneck %v/%v disagrees with sim %v/%v",
				fx.Name, got.Bottleneck.Kind, got.Bottleneck.Name, want.Bottleneck.Kind, want.Bottleneck.Name)
		}
		c := got.Confidence
		if c == nil {
			t.Errorf("%s: in-envelope answer carries no confidence", fx.Name)
			continue
		}
		if want.Attainable < c.Lo || want.Attainable > c.Hi {
			t.Errorf("%s: measured %.4g outside the confidence envelope [%.4g, %.4g]",
				fx.Name, want.Attainable, c.Lo, c.Hi)
		}
	}
	if inEnv == 0 {
		t.Fatal("no corpus fixture landed in the calibrated envelope")
	}
	if mean := sum / float64(inEnv); mean > MaxCorpusMeanRelErr {
		t.Errorf("corpus mean rel err %.4f above band %.2f (%d in-envelope fixtures)", mean, MaxCorpusMeanRelErr, inEnv)
	}
	t.Logf("corpus: %d/%d fixtures in envelope, mean rel err %.4f, max %.4f",
		inEnv, len(eval.DefaultCorpus()), sum/float64(inEnv), worst)
}
