package eval

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/gables-model/gables/internal/core"
	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim"
	"github.com/gables-model/gables/internal/units"
)

// batchQueries builds a mixed grid over one chip: fractions × intensities,
// alternating serialized cells and an occasional read-only pattern, the
// shapes the sweep harnesses actually generate.
func batchQueries(t *testing.T, cfg sim.Config, cpu, accel string) []Query {
	t.Helper()
	var qs []Query
	i := 0
	for _, fpw := range []int{8, 64, 512, 4096} {
		for _, f := range []float64{0, 0.25, 0.5, 0.75, 1} {
			p := kernel.ReadWrite
			if i%7 == 3 {
				p = kernel.ReadOnly
			}
			work, err := SplitWork(cfg, 4<<20, fpw, p, []Share{
				{IP: cpu, Fraction: 1 - f}, {IP: accel, Fraction: f},
			})
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, Query{Chip: cfg, Work: work, Trials: 2, Serialized: i%3 == 2})
			i++
		}
	}
	return qs
}

// referenceOutcome answers q through core.(*Model).Evaluate (or
// EvaluateSerialized) on a unit-work usecase and assembles the Outcome
// from the full core.Result, independently of the slab's cell kernel and
// emitOutcomes. Every analytic answer must match it bitwise.
func referenceOutcome(tb testing.TB, a *Analytic, q Query) *Outcome {
	tb.Helper()
	model, names := a.model, a.ipNames
	if model == nil {
		model, names = derive(&q)
	}
	index := make(map[string]int, len(names))
	for i, name := range names {
		index[name] = i
	}
	total := q.TotalFlops()
	work := make([]core.Work, len(names))
	for i, w := range q.Work {
		if w.Words == 0 {
			continue
		}
		mi, ok := index[q.Chip.IPs[i].Name]
		if !ok {
			tb.Fatalf("reference: model has no IP %q", q.Chip.IPs[i].Name)
		}
		flops := float64(w.Words) * float64(w.FlopsPerWord) * float64(q.trials())
		work[mi] = core.Work{
			Fraction:  flops / total,
			Intensity: units.Intensity(float64(w.FlopsPerWord) / patternBytesPerWord(w.Pattern)),
		}
	}
	// TotalOps stays unset: the unit-work breakdown is rescaled to the
	// query's total below, as the slab does.
	u := &core.Usecase{Name: "eval-query", Work: work}
	var res *core.Result
	var err error
	if q.Serialized {
		res, err = model.EvaluateSerialized(u)
	} else {
		res, err = model.Evaluate(u)
	}
	if err != nil {
		tb.Fatalf("reference: %v", err)
	}
	o := &Outcome{
		Backend:    "analytic",
		Fidelity:   FidelityAnalytic,
		Attainable: float64(res.Attainable),
		TotalFlops: total,
		Bottleneck: canonicalBottleneck(res.Bottleneck),
		TieRatio:   referenceTieRatio(res),
	}
	if res.Attainable > 0 {
		o.Makespan = total / float64(res.Attainable)
	}
	for mi, br := range res.IPs {
		if work[mi].Fraction == 0 {
			continue
		}
		ip := IPOutcome{
			IP:    names[mi],
			Flops: work[mi].Fraction * total,
			Bytes: float64(br.Data) * total,
			Time:  float64(br.Time) * total,
		}
		if ip.Time > 0 {
			ip.Rate = ip.Flops / ip.Time
		}
		o.IPs = append(o.IPs, ip)
	}
	return o
}

// referenceTieRatio is the second-largest constraint time over the
// largest, across per-IP times, the memory term and any bus terms; 0 with
// fewer than two constraints.
func referenceTieRatio(res *core.Result) float64 {
	var times []float64
	for _, br := range res.IPs {
		if br.Time > 0 {
			times = append(times, float64(br.Time))
		}
	}
	if res.MemoryTime > 0 {
		times = append(times, float64(res.MemoryTime))
	}
	for _, bt := range res.BusTimes {
		if bt > 0 {
			times = append(times, float64(bt))
		}
	}
	if len(times) < 2 {
		return 0
	}
	first, second := math.Inf(-1), math.Inf(-1)
	for _, t := range times {
		if t > first {
			first, second = t, first
		} else if t > second {
			second = t
		}
	}
	if first <= 0 {
		return 0
	}
	return second / first
}

// checkPointMatchesReference pins the point API, a slab of one, against
// the reference on every query of qs.
func checkPointMatchesReference(t *testing.T, a *Analytic, qs []Query) {
	t.Helper()
	for i := range qs {
		got, err := a.Evaluate(context.Background(), qs[i])
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		outcomesBitEq(t, "point "+qs[i].Chip.Name, *got, referenceOutcome(t, a, qs[i]))
	}
}

// outcomesBitEq compares two outcomes field by field with bitwise float
// equality.
func outcomesBitEq(t *testing.T, label string, got Outcome, want *Outcome) {
	t.Helper()
	feq := func(name string, g, w float64) {
		t.Helper()
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: %s = %v (%x), reference %v (%x)", label, name, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	if got.Backend != want.Backend || got.Fidelity != want.Fidelity {
		t.Errorf("%s: backend/fidelity %s/%s, want %s/%s", label, got.Backend, got.Fidelity, want.Backend, want.Fidelity)
	}
	feq("Attainable", got.Attainable, want.Attainable)
	feq("Makespan", got.Makespan, want.Makespan)
	feq("TotalFlops", got.TotalFlops, want.TotalFlops)
	feq("TieRatio", got.TieRatio, want.TieRatio)
	feq("DRAMUtilization", got.DRAMUtilization, want.DRAMUtilization)
	if got.Bottleneck != want.Bottleneck {
		t.Errorf("%s: bottleneck %+v, want %+v", label, got.Bottleneck, want.Bottleneck)
	}
	if len(got.IPs) != len(want.IPs) {
		t.Fatalf("%s: %d IP outcomes, want %d", label, len(got.IPs), len(want.IPs))
	}
	for k := range got.IPs {
		if got.IPs[k].IP != want.IPs[k].IP {
			t.Errorf("%s: IP[%d] name %q, want %q", label, k, got.IPs[k].IP, want.IPs[k].IP)
		}
		feq("IP.Flops", got.IPs[k].Flops, want.IPs[k].Flops)
		feq("IP.Bytes", got.IPs[k].Bytes, want.IPs[k].Bytes)
		feq("IP.Time", got.IPs[k].Time, want.IPs[k].Time)
		feq("IP.Rate", got.IPs[k].Rate, want.IPs[k].Rate)
	}
}

// TestAnalyticBatchMatchesEvaluateBitwise pins the BatchEvaluator
// contract for both analytic modes: every batch outcome, and every point
// answer, is bitwise identical to referenceOutcome's for the same query.
func TestAnalyticBatchMatchesEvaluateBitwise(t *testing.T) {
	ctx := context.Background()

	t.Run("configured", func(t *testing.T) {
		a := NewAnalytic()
		// Interleave two chips so the derivation grouping has to split
		// and re-derive mid-slab.
		qs := batchQueries(t, sim.Snapdragon835(), "CPU", "GPU")
		qs = append(qs, batchQueries(t, sim.Snapdragon821(), "CPU", "GPU")...)
		qs = append(qs, qs[0], qs[len(qs)/2]) // repeats across group boundaries
		out := make([]Outcome, len(qs))
		if err := EvaluateBatch(ctx, a, qs, out); err != nil {
			t.Fatal(err)
		}
		for i := range qs {
			outcomesBitEq(t, qs[i].Chip.Name, out[i], referenceOutcome(t, a, qs[i]))
		}
		checkPointMatchesReference(t, a, qs)
	})

	t.Run("injected", func(t *testing.T) {
		soc, err := core.TwoIP("cal", 4e9, 12e9, 6, 8e9, 30e9)
		if err != nil {
			t.Fatal(err)
		}
		model := &core.Model{
			SoC:  soc,
			SRAM: &core.SRAM{Name: "cache", MissRatio: []float64{0.4, 0.9}},
		}
		a, err := NewAnalyticModel(model, []string{"CPU", "GPU"})
		if err != nil {
			t.Fatal(err)
		}
		qs := batchQueries(t, sim.Snapdragon835(), "CPU", "GPU")
		out := make([]Outcome, len(qs))
		if err := EvaluateBatch(ctx, a, qs, out); err != nil {
			t.Fatal(err)
		}
		for i := range qs {
			outcomesBitEq(t, "injected", out[i], referenceOutcome(t, a, qs[i]))
		}
		checkPointMatchesReference(t, a, qs)
	})
}

// TestEvaluateBatchFallback pins the helper's point-wise path for
// backends without a batch implementation.
func TestEvaluateBatchFallback(t *testing.T) {
	cfg := sim.Snapdragon835()
	work, err := SplitWork(cfg, 1<<20, 8, kernel.ReadWrite, []Share{
		{IP: "CPU", Fraction: 0.5}, {IP: "GPU", Fraction: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := []Query{{Chip: cfg, Work: work, Trials: 1}}
	out := make([]Outcome, 1)
	simEv := NewSim()
	if err := EvaluateBatch(context.Background(), simEv, qs, out); err != nil {
		t.Fatal(err)
	}
	want, err := simEv.Evaluate(context.Background(), qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Attainable != want.Attainable || out[0].Bottleneck != want.Bottleneck {
		t.Errorf("fallback outcome diverged: %+v vs %+v", out[0], want)
	}
	if err := EvaluateBatch(context.Background(), simEv, qs, make([]Outcome, 2)); err == nil {
		t.Error("mismatched arena length accepted")
	}
}

// TestAnalyticBatchErrors pins per-query error attribution.
func TestAnalyticBatchErrors(t *testing.T) {
	cfg := sim.Snapdragon835()
	work, err := SplitWork(cfg, 1<<20, 8, kernel.ReadWrite, []Share{
		{IP: "CPU", Fraction: 0.5}, {IP: "GPU", Fraction: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalytic()
	good := Query{Chip: cfg, Work: work, Trials: 2}
	coord := good
	coord.Coordination = true
	if err := a.EvaluateBatch(context.Background(), []Query{good, coord}, make([]Outcome, 2)); err == nil {
		t.Error("coordination query accepted by analytic batch")
	}
	bad := good
	bad.Work = nil
	if err := a.EvaluateBatch(context.Background(), []Query{bad}, make([]Outcome, 1)); err == nil {
		t.Error("invalid query accepted")
	}
}

// TestAnalyticBatchAllocsConstant pins the arena discipline: the number
// of allocations per batch call is a small constant — it does not grow
// with the cell count, so the per-cell inner loop is allocation-free.
func TestAnalyticBatchAllocsConstant(t *testing.T) {
	cfg := sim.Snapdragon835()
	build := func(n int) ([]Query, []Outcome) {
		qs := make([]Query, 0, n)
		for len(qs) < n {
			f := float64(len(qs)%5) / 4
			work, err := SplitWork(cfg, 4<<20, 8+len(qs)%64, kernel.ReadWrite, []Share{
				{IP: "CPU", Fraction: 1 - f}, {IP: "GPU", Fraction: f},
			})
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, Query{Chip: cfg, Work: work, Trials: 2})
		}
		return qs, make([]Outcome, n)
	}
	a := NewAnalytic()
	measure := func(qs []Query, out []Outcome) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := a.EvaluateBatch(context.Background(), qs, out); err != nil {
				t.Fatal(err)
			}
		})
	}
	qsSmall, outSmall := build(64)
	qsBig, outBig := build(512)
	small, big := measure(qsSmall, outSmall), measure(qsBig, outBig)
	if big > small {
		t.Errorf("allocs grew with cell count: %v for 64 cells, %v for 512", small, big)
	}
	if small > 64 {
		t.Errorf("batch setup allocates %v times, want a small constant", small)
	}
}

// mixedChipSlab builds n queries shuffled across the three chip presets,
// with mixed serialized flags — the shape of a serving /eval/batch slab.
// Queries for one chip share one Config backing; with fresh set, every
// query gets a preset of its own instead, so no two share a derivation.
func mixedChipSlab(tb testing.TB, n int, fresh bool) []Query {
	tb.Helper()
	presets := []func() sim.Config{sim.Snapdragon835, sim.Snapdragon821, sim.Snapdragon835Extended}
	shared := make([]sim.Config, len(presets))
	for c, preset := range presets {
		shared[c] = preset()
	}
	rng := rand.New(rand.NewSource(20))
	qs := make([]Query, n)
	for i := range qs {
		c := rng.Intn(len(presets))
		cfg := shared[c]
		if fresh {
			cfg = presets[c]()
		}
		f := float64(1+rng.Intn(9)) / 10
		fpw := []int{8, 32, 128, 512}[rng.Intn(4)]
		work, err := SplitWork(cfg, 4<<20, fpw, kernel.ReadWrite, []Share{
			{IP: "GPU", Fraction: f}, {IP: "CPU", Fraction: 1 - f},
		})
		if err != nil {
			tb.Fatal(err)
		}
		qs[i] = Query{Chip: cfg, Work: work, Trials: 2, Serialized: rng.Intn(3) == 0}
	}
	return qs
}

// derivationRuns counts the model derivations EvaluateBatch performs on
// qs: the maximal sameDerivation runs of its derivation-order view.
func derivationRuns(qs []Query) int {
	order := derivationOrder(qs)
	runs := 0
	for k := range order {
		if k == 0 || !sameDerivation(&qs[order[k-1]], &qs[order[k]]) {
			runs++
		}
	}
	return runs
}

// TestAnalyticBatchMixedChips pins derivation grouping on a shuffled
// three-chip slab: every outcome, per-IP detail included, is bitwise the
// reference answer, and the slab derives one model per chip however its
// queries interleave — so the batch's allocations do not grow with it.
func TestAnalyticBatchMixedChips(t *testing.T) {
	ctx := context.Background()
	a := NewAnalytic()
	qs := mixedChipSlab(t, 192, false)
	out := make([]Outcome, len(qs))
	if err := EvaluateBatch(ctx, a, qs, out); err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		outcomesBitEq(t, qs[i].Chip.Name, out[i], referenceOutcome(t, a, qs[i]))
	}

	if got := derivationRuns(qs); got != 3 {
		t.Errorf("shuffled three-chip slab derives %d models, want 3", got)
	}
	measure := func(n int) float64 {
		qs := mixedChipSlab(t, n, false)
		out := make([]Outcome, n)
		return testing.AllocsPerRun(10, func() {
			if err := a.EvaluateBatch(ctx, qs, out); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, big := measure(48), measure(480); big > small {
		t.Errorf("allocs grew with slab size: %v for 48 queries, %v for 480", small, big)
	}
}

// TestDerivationOrderNeverAddsRuns pins the grouping's worst case: past
// maxDerivationGroups distinct derivations, the permuted slab still needs
// no more derivations than the slab in its original order.
func TestDerivationOrderNeverAddsRuns(t *testing.T) {
	originalRuns := func(qs []Query) int {
		runs := 0
		for k := range qs {
			if k == 0 || !sameDerivation(&qs[k-1], &qs[k]) {
				runs++
			}
		}
		return runs
	}
	// 12 chips, each with its own backing, visited in blocks of two to
	// five queries in a seeded order.
	rng := rand.New(rand.NewSource(7))
	chips := make([]sim.Config, 12)
	for c := range chips {
		chips[c] = sim.Snapdragon835()
	}
	var many []Query
	for len(many) < 300 {
		cfg := chips[rng.Intn(len(chips))]
		work, err := SplitWork(cfg, 1<<20, 8, kernel.ReadWrite, []Share{{IP: "CPU", Fraction: 1}})
		if err != nil {
			t.Fatal(err)
		}
		for k := 2 + rng.Intn(4); k > 0; k-- {
			many = append(many, Query{Chip: cfg, Work: work, Trials: 2})
		}
	}
	for _, tc := range []struct {
		name string
		qs   []Query
	}{
		{"fresh-presets", mixedChipSlab(t, 64, true)},
		{"twelve-chips", many},
	} {
		if got, orig := derivationRuns(tc.qs), originalRuns(tc.qs); got > orig {
			t.Errorf("%s: %d derivations in derivation order, %d in slab order", tc.name, got, orig)
		}
	}
}

// BenchmarkAnalyticBatchMixedChips answers one shuffled three-chip slab
// two ways: grouped, with the queries for each chip sharing one preset
// (the serving path's shape), and fresh-presets, with every query on a
// preset of its own, which re-derives the model per query. The ratio of
// the two ns/item figures is the grouping's speedup.
func BenchmarkAnalyticBatchMixedChips(b *testing.B) {
	const n = 256
	for _, bc := range []struct {
		name  string
		fresh bool
	}{{"grouped", false}, {"fresh-presets", true}} {
		b.Run(bc.name, func(b *testing.B) {
			a := NewAnalytic()
			qs := mixedChipSlab(b, n, bc.fresh)
			out := make([]Outcome, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.EvaluateBatch(context.Background(), qs, out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/item")
		})
	}
}
