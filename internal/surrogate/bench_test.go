package surrogate

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim"
	"github.com/gables-model/gables/internal/simcache"
)

// benchQuery is the canonical in-envelope benchmark point: the corpus
// chip's two-IP split at a mid-grid shape over a 128 MiB working set (a
// realistic full-frame streaming workload; sim cost scales with the
// working set, the fitted fast path is constant).
func benchQuery(tb testing.TB) (sim.Config, eval.Query) {
	tb.Helper()
	cfg := sim.Snapdragon835()
	work, err := eval.SplitWork(cfg, 32<<20, 512, kernel.ReadWrite, []eval.Share{
		{IP: "CPU", Fraction: 0.5}, {IP: "GPU", Fraction: 0.5},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return cfg, eval.Query{Chip: cfg, Work: work, Trials: 2}
}

// BenchmarkSurrogateEvaluate measures the calibrated fast path end to end
// (routing, envelope check, fitted-model evaluation). The ≥100× floor
// against BenchmarkSurrogateSimCold is enforced by TestSurrogateSpeedupFloor.
func BenchmarkSurrogateEvaluate(b *testing.B) {
	cfg, q := benchQuery(b)
	backend := New(Options{})
	if _, err := backend.Evaluate(context.Background(), q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := backend.Evaluate(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
	_ = cfg
}

// BenchmarkSurrogateSimCold is the same query through the sim backend with
// a cold simulation cache every iteration: the cost the surrogate's fast path
// replaces. BenchmarkSurrogateSimCold / BenchmarkSurrogateEvaluate is the
// speedup TestSurrogateSpeedupFloor floors at 100×.
func BenchmarkSurrogateSimCold(b *testing.B) {
	_, q := benchQuery(b)
	simEv := eval.NewSim()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		simcache.ResetDefault()
		b.StartTimer()
		if _, err := simEv.Evaluate(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCalibrate measures a full calibration pass. cold empties the
// simcache before each pass, so every sweep cell is simulated: the cost of
// the first query a chip sees in a fresh process. warm replays the sweeps
// from simcache's memory layer, so what remains is fitting and table
// derivation.
func BenchmarkCalibrate(b *testing.B) {
	cfg, _ := benchQuery(b)
	ctx := context.Background()
	b.Run("cold", func(b *testing.B) {
		defer simcache.ResetDefault()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			simcache.ResetDefault()
			b.StartTimer()
			if _, err := Calibrate(ctx, cfg, Plan{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		if _, err := Calibrate(ctx, cfg, Plan{}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Calibrate(ctx, cfg, Plan{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// surrogateSpeedupFloor is the pinned minimum speedup of the fitted fast
// path over the cold sim query it replaces. Unlike the experiments
// harness floor it is not CPU-gated: both sides are single-threaded
// closed-form-vs-simulation work.
const surrogateSpeedupFloor = 100

// TestSurrogateSpeedupFloor times the two query paths of
// BenchmarkSurrogateEvaluate and BenchmarkSurrogateSimCold over fixed
// iteration counts and floors their ratio. Each side keeps its minimum
// per-query time over interleaved repetitions, so a burst of load from
// packages testing in parallel inflates neither side alone.
func TestSurrogateSpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const (
		reps      = 3
		fastIters = 2000
		coldIters = 40
	)
	ctx := context.Background()
	_, q := benchQuery(t)
	backend := New(Options{})
	if _, err := backend.Evaluate(ctx, q); err != nil {
		t.Fatal(err)
	}
	simEv := eval.NewSim()
	defer simcache.ResetDefault()

	fast, cold := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for r := 0; r < reps; r++ {
		start := time.Now()
		for i := 0; i < fastIters; i++ {
			if _, err := backend.Evaluate(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
		fast = min(fast, time.Since(start)/fastIters)

		var spent time.Duration
		for i := 0; i < coldIters; i++ {
			simcache.ResetDefault()
			start := time.Now()
			if _, err := simEv.Evaluate(ctx, q); err != nil {
				t.Fatal(err)
			}
			spent += time.Since(start)
		}
		cold = min(cold, spent/coldIters)
	}
	ratio := float64(cold) / float64(fast)
	t.Logf("surrogate fast path %v, cold sim %v: %.0fx (floor %dx)", fast, cold, ratio, surrogateSpeedupFloor)
	if ratio < surrogateSpeedupFloor {
		t.Errorf("surrogate fast-path speedup %.0fx < %dx floor", ratio, surrogateSpeedupFloor)
	}
}
