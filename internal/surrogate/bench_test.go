package surrogate

import (
	"context"
	"testing"

	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim"
	"github.com/gables-model/gables/internal/simcache"
)

// benchQuery is the canonical in-envelope benchmark point: the corpus
// chip's two-IP split at a mid-grid shape over a 128 MiB working set (a
// realistic full-frame streaming workload; sim cost scales with the
// working set, the fitted fast path is constant).
func benchQuery(b *testing.B) (sim.Config, eval.Query) {
	b.Helper()
	cfg := sim.Snapdragon835()
	work, err := eval.SplitWork(cfg, 32<<20, 512, kernel.ReadWrite, []eval.Share{
		{IP: "CPU", Fraction: 0.5}, {IP: "GPU", Fraction: 0.5},
	})
	if err != nil {
		b.Fatal(err)
	}
	return cfg, eval.Query{Chip: cfg, Work: work, Trials: 2}
}

// BenchmarkSurrogateEvaluate measures the calibrated fast path end to end
// (routing, envelope check, fitted-model evaluation). The ≥100× floor
// against BenchmarkSurrogateSimCold is enforced by gables-bench -check.
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
// replaces. BenchmarkSurrogateEvaluate / BenchmarkSurrogateSimCold is the
// speedup gables-bench floors at 100×.
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

// BenchmarkCalibrate measures a full calibration pass on a warm simcache
// (the sweeps hit the memoized results; what remains is fitting and table
// derivation — the cost of re-calibrating after a process restart with a
// shared disk cache).
func BenchmarkCalibrate(b *testing.B) {
	cfg, _ := benchQuery(b)
	if _, err := Calibrate(context.Background(), cfg, Plan{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Calibrate(context.Background(), cfg, Plan{}); err != nil {
			b.Fatal(err)
		}
	}
}
