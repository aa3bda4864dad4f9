package eval

import (
	"context"
	"math"
	"testing"

	"github.com/gables-model/gables/internal/core"
	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim"
	"github.com/gables-model/gables/internal/simcache"
	"github.com/gables-model/gables/internal/units"
)

func twoIPQuery(t *testing.T, f float64, fpw int) Query {
	t.Helper()
	cfg := sim.Snapdragon835()
	work, err := SplitWork(cfg, 4<<20, fpw, kernel.ReadWrite, []Share{
		{IP: "CPU", Fraction: 1 - f}, {IP: "GPU", Fraction: f},
	})
	if err != nil {
		t.Fatal(err)
	}
	return Query{Chip: cfg, Work: work, Trials: 2}
}

// TestSplitWorkMatchesHistoricalArithmetic pins the apportionment to the
// exact cpuWords/accWords integer math the §IV-C harnesses have always
// used, so rethreaded callers produce fingerprint-identical runs.
func TestSplitWorkMatchesHistoricalArithmetic(t *testing.T) {
	cfg := sim.Snapdragon835()
	const words = 4 << 20
	for _, f := range []float64{0, 0.125, 0.25, 0.5, 0.625, 0.75, 1} {
		work, err := SplitWork(cfg, words, 32, kernel.ReadWrite, []Share{
			{IP: "CPU", Fraction: 1 - f}, {IP: "GPU", Fraction: f},
		})
		if err != nil {
			t.Fatal(err)
		}
		cpuWords := int(float64(words) * (1 - f))
		accWords := words - cpuWords
		if work[0].Words != cpuWords || work[1].Words != accWords {
			t.Errorf("f=%v: split = %d/%d, want %d/%d", f, work[0].Words, work[1].Words, cpuWords, accWords)
		}
		if work[0].Words+work[1].Words+work[2].Words != words {
			t.Errorf("f=%v: split loses words", f)
		}
	}
	// Errors: unknown IP, duplicate share, out-of-range fraction.
	if _, err := SplitWork(cfg, words, 8, kernel.ReadWrite, []Share{{IP: "NPU", Fraction: 1}}); err == nil {
		t.Error("unknown IP must be rejected")
	}
	if _, err := SplitWork(cfg, words, 8, kernel.ReadWrite, []Share{
		{IP: "CPU", Fraction: 0.5}, {IP: "CPU", Fraction: 0.5}}); err == nil {
		t.Error("duplicate share must be rejected")
	}
	if _, err := SplitWork(cfg, words, 8, kernel.ReadWrite, []Share{{IP: "CPU", Fraction: 1.5}}); err == nil {
		t.Error("fraction outside [0,1] must be rejected")
	}
}

func TestQueryValidate(t *testing.T) {
	q := twoIPQuery(t, 0.5, 32)
	if err := q.Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	bad := q
	bad.Work = q.Work[:1]
	if err := bad.Validate(); err == nil {
		t.Error("work/IP count mismatch must be rejected")
	}
	bad = q
	bad.Work = []IPWork{{}, {}, {}}
	if err := bad.Validate(); err == nil {
		t.Error("all-idle query must be rejected")
	}
	bad = q
	bad.Work = append([]IPWork(nil), q.Work...)
	bad.Work[0] = IPWork{Words: 100, FlopsPerWord: 0}
	if err := bad.Validate(); err == nil {
		t.Error("active work with zero FlopsPerWord must be rejected")
	}
}

// TestFingerprintCanonicalization pins the fingerprint contract: equal
// realized runs agree, every semantic knob separates, and the
// sim-delegated exclusions (trial order, labels) hold.
func TestFingerprintCanonicalization(t *testing.T) {
	q := twoIPQuery(t, 0.5, 32)
	fp1, err := Fingerprint(q)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := Fingerprint(twoIPQuery(t, 0.5, 32))
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Error("identical queries must fingerprint identically")
	}

	variants := map[string]func(Query) Query{
		"fraction":     func(q Query) Query { return twoIPQuery(t, 0.25, 32) },
		"intensity":    func(q Query) Query { return twoIPQuery(t, 0.5, 64) },
		"serialized":   func(q Query) Query { q.Serialized = true; return q },
		"coordination": func(q Query) Query { q.Coordination = true; return q },
		"thermal":      func(q Query) Query { q.Thermal = true; return q },
		"trials":       func(q Query) Query { q.Trials = 3; return q },
	}
	for name, mutate := range variants {
		fp, err := Fingerprint(mutate(q))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fp == fp1 {
			t.Errorf("%s change must change the fingerprint", name)
		}
	}

	// MaxEvents normalization is inherited from sim.Fingerprint: 0 and
	// the explicit default are the same run.
	qa, qb := q, q
	qa.MaxEvents = 0
	qb.MaxEvents = sim.DefaultMaxEvents
	fpa, _ := Fingerprint(qa)
	fpb, _ := Fingerprint(qb)
	if fpa != fpb {
		t.Error("MaxEvents 0 and DefaultMaxEvents must fingerprint identically")
	}
}

// TestSimEvaluatorMatchesDirectRun pins byte-identity through the new
// interface: the sim backend's outcome must be exactly the simcache.Run
// result of the query's canonical realization.
func TestSimEvaluatorMatchesDirectRun(t *testing.T) {
	q := twoIPQuery(t, 0.75, 8)
	as, opt, err := q.realize()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := simcache.Run(q.Chip, as, opt)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewSim().Evaluate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if o.Attainable != direct.Rate || o.Makespan != direct.Makespan || o.TotalFlops != direct.TotalFlops {
		t.Errorf("sim outcome %+v disagrees with direct run rate=%v makespan=%v flops=%v",
			o, direct.Rate, direct.Makespan, direct.TotalFlops)
	}
	if len(o.IPs) != len(direct.IPs) {
		t.Fatalf("per-IP detail count %d, want %d", len(o.IPs), len(direct.IPs))
	}
	for i, ip := range o.IPs {
		if ip.Rate != direct.IPs[i].Rate || ip.IP != direct.IPs[i].IP {
			t.Errorf("IP %d outcome %+v disagrees with direct %+v", i, ip, direct.IPs[i])
		}
	}
}

// simHitAllocCeiling is the measured allocation count of one sim-backend
// answer served from the result cache: the realized assignments and their
// labels, the run key, the private copy of the cached result and the
// outcome. No trace label is built while no probe factory is installed.
const simHitAllocCeiling = 10

// TestSimEvaluateHitAllocs pins a cached sim-backend answer's allocations.
func TestSimEvaluateHitAllocs(t *testing.T) {
	ctx := context.Background()
	s := NewSim()
	q := twoIPQuery(t, 0.5, 32)
	if _, err := s.Evaluate(ctx, q); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Evaluate(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > simHitAllocCeiling {
		t.Errorf("a cached Sim.Evaluate allocates %v times, ceiling %d", allocs, simHitAllocCeiling)
	}
}

// TestAnalyticInjectedModelMatchesDirectEvaluate pins the other
// byte-identity: with an injected model, the analytic backend's
// attainable must equal evaluating the historical TwoIPUsecase directly —
// the erb.ValidateModel rethreading depends on it.
func TestAnalyticInjectedModelMatchesDirectEvaluate(t *testing.T) {
	s, err := core.TwoIP("inj", units.GopsPerSec(10), units.GBPerSec(30), 20,
		units.GBPerSec(15), units.GBPerSec(25))
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.New(s)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewAnalyticModel(model, []string{"CPU", "GPU"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{0, 0.25, 0.5, 0.75, 1} {
		for _, fpw := range []int{8, 512} {
			q := twoIPQuery(t, f, fpw)
			o, err := ev.Evaluate(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			intensity := units.Intensity(float64(fpw) / 8)
			u, err := core.TwoIPUsecase("cell", f, intensity, intensity)
			if err != nil {
				t.Fatal(err)
			}
			res, err := model.Evaluate(u)
			if err != nil {
				t.Fatal(err)
			}
			if o.Attainable != float64(res.Attainable) {
				t.Errorf("f=%v fpw=%d: analytic backend %v != direct evaluate %v (must be bitwise identical)",
					f, fpw, o.Attainable, float64(res.Attainable))
			}
		}
	}

	// Work on a chip IP absent from the model is unsupported.
	q := twoIPQuery(t, 0.5, 8)
	q.Work[2] = IPWork{Words: 4 << 20, FlopsPerWord: 8}
	if err := ev.Supports(q); err == nil {
		t.Error("work on an IP missing from the injected model must be unsupported")
	}
}

// TestAnalyticSerializedMatchesDirect covers the §V-C path the same way.
func TestAnalyticSerializedMatchesDirect(t *testing.T) {
	s, err := core.TwoIP("inj", units.GopsPerSec(10), units.GBPerSec(30), 20,
		units.GBPerSec(15), units.GBPerSec(25))
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.New(s)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewAnalyticModel(model, []string{"CPU", "GPU"})
	if err != nil {
		t.Fatal(err)
	}
	q := twoIPQuery(t, 0.5, 64)
	q.Serialized = true
	o, err := ev.Evaluate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	intensity := units.Intensity(64.0 / 8)
	u, err := core.TwoIPUsecase("cell", 0.5, intensity, intensity)
	if err != nil {
		t.Fatal(err)
	}
	res, err := model.EvaluateSerialized(u)
	if err != nil {
		t.Fatal(err)
	}
	if o.Attainable != float64(res.Attainable) {
		t.Errorf("serialized: backend %v != direct %v", o.Attainable, float64(res.Attainable))
	}
	if o.Bottleneck.Kind != "IP" {
		t.Errorf("serialized bottleneck = %v, want an IP (slowest exclusive phase)", o.Bottleneck)
	}
}

func TestAnalyticSupports(t *testing.T) {
	ev := NewAnalytic()
	q := twoIPQuery(t, 0.5, 32)
	if err := ev.Supports(q); err != nil {
		t.Errorf("plain query must be supported: %v", err)
	}
	qc := q
	qc.Coordination = true
	if err := ev.Supports(qc); err == nil {
		t.Error("coordination must be unsupported")
	}
	qt := q
	qt.Thermal = true
	if err := ev.Supports(qt); err == nil {
		t.Error("thermal must be unsupported")
	}
	if _, err := ev.Evaluate(context.Background(), qc); err == nil {
		t.Error("evaluating an unsupported query must fail")
	}
}

// TestAnalyticEvaluateErrors pins the point API's error texts: each
// rejection reads exactly as it did when Evaluate assembled its own
// outcome, without the slab's "batch query 0" wrapping.
func TestAnalyticEvaluateErrors(t *testing.T) {
	soc, err := core.TwoIP("cal", 4e9, 12e9, 6, 8e9, 30e9)
	if err != nil {
		t.Fatal(err)
	}
	injected, err := NewAnalyticModel(&core.Model{SoC: soc}, []string{"CPU", "GPU"})
	if err != nil {
		t.Fatal(err)
	}
	badSRAM, err := NewAnalyticModel(&core.Model{
		SoC:  soc,
		SRAM: &core.SRAM{Name: "cache", MissRatio: []float64{0.4, 2}},
	}, []string{"CPU", "GPU"})
	if err != nil {
		t.Fatal(err)
	}
	// query returns a CPU+GPU query on a private Snapdragon 835 preset,
	// edited by mod.
	query := func(mod func(*Query)) Query {
		q := twoIPQuery(t, 0.5, 32)
		mod(&q)
		return q
	}
	for _, tc := range []struct {
		name string
		a    *Analytic
		q    Query
		want string
	}{
		{"no work", NewAnalytic(), query(func(q *Query) { q.Work = nil }),
			"eval: query has 0 work entries for 3 chip IPs"},
		{"negative words", NewAnalytic(), query(func(q *Query) { q.Work[1].Words = -1 }),
			`eval: IP "GPU": negative word count -1`},
		{"coordination", NewAnalytic(), query(func(q *Query) { q.Coordination = true }),
			"eval: analytic backend cannot represent coordination overhead"},
		{"thermal", NewAnalytic(), query(func(q *Query) { q.Thermal = true }),
			"eval: analytic backend cannot represent thermal throttling"},
		{"unknown injected IP", injected, query(func(q *Query) { q.Work[2] = q.Work[1] }),
			`eval: analytic model has no IP "DSP"`},
		{"zero DRAM bandwidth", NewAnalytic(), query(func(q *Query) { q.Chip.DRAMBandwidth = 0 }),
			`gables: SoC "snapdragon-835-sim-analytic": Bpeak must be positive, got 0`},
		{"zero fabric bandwidth", NewAnalytic(), query(func(q *Query) { q.Chip.Fabrics[1].Bandwidth = 0 }),
			`gables: bus[1] "system": bandwidth must be positive, got 0`},
		{"zero link bandwidth", NewAnalytic(), query(func(q *Query) { q.Chip.IPs[1].LinkBandwidth = 0 }),
			`gables: SoC "snapdragon-835-sim-analytic": IP[1] (GPU): bandwidth must be positive, got 0`},
		{"invalid injected SRAM", badSRAM, query(func(*Query) {}),
			`gables: SRAM "cache": miss ratio m[1] must be in [0,1], got 2`},
	} {
		o, err := tc.a.Evaluate(context.Background(), tc.q)
		if err == nil {
			t.Errorf("%s: accepted, got %+v", tc.name, o)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("%s: error %q, want %q", tc.name, err, tc.want)
		}
	}
}

// pointAllocCeiling is the measured allocation count of one
// configured-mode Analytic.Evaluate on a fresh config: the slab of one
// derives the model, hoists its batch evaluator and sizes its arenas on
// every call. presetPointAllocCeiling is the same call on a query made by
// a Preset, which takes the compiled plan and only sizes the arenas.
const (
	pointAllocCeiling       = 20
	presetPointAllocCeiling = 8
)

// TestAnalyticEvaluateAllocs pins the point path's allocations and that
// each answer is the caller's own: mutating a returned outcome does not
// change the next one.
func TestAnalyticEvaluateAllocs(t *testing.T) {
	ctx := context.Background()
	a := NewAnalytic()
	q := twoIPQuery(t, 0.625, 32)
	pq := NewPreset(q.Chip).Query()
	pq.Work, pq.Trials = q.Work, q.Trials
	for _, tc := range []struct {
		name    string
		q       Query
		ceiling float64
	}{{"fresh config", q, pointAllocCeiling}, {"preset", pq, presetPointAllocCeiling}} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := a.Evaluate(ctx, tc.q); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.ceiling {
			t.Errorf("%s: Analytic.Evaluate allocates %v times, ceiling %v", tc.name, allocs, tc.ceiling)
		}
	}

	first, err := a.Evaluate(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	want := first.IPs[0].Rate
	first.IPs[0].Rate = -1
	next, err := a.Evaluate(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if next.IPs[0].Rate != want {
		t.Errorf("mutating a returned outcome changed the next answer: IPs[0].Rate %v, want %v", next.IPs[0].Rate, want)
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"analytic", "sim", "auto"} {
		ev, err := Resolve(name)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", name, err)
		}
		if ev.Meta().Name != name {
			t.Errorf("Resolve(%q).Meta().Name = %q", name, ev.Meta().Name)
		}
	}
	if _, err := Resolve("nope"); err == nil {
		t.Error("unknown backend must be rejected")
	}
	names := Names()
	if len(names) < 3 {
		t.Errorf("Names() = %v, want at least analytic/auto/sim", names)
	}
}

// TestAutoRouting pins the envelope: in-envelope queries go analytic,
// coordination/thermal/cache-resident queries go to measurement, and the
// outcome records the actual backend.
func TestAutoRouting(t *testing.T) {
	auto := NewAuto(NewAnalytic(), NewSim(), DefaultEnvelope())

	inEnv := twoIPQuery(t, 0.5, 32)
	if got := auto.Pick(inEnv).Meta().Name; got != "analytic" {
		t.Errorf("in-envelope query routed to %q, want analytic", got)
	}
	o, err := auto.Evaluate(context.Background(), inEnv)
	if err != nil {
		t.Fatal(err)
	}
	if o.Backend != "analytic" || o.Fidelity != FidelityAnalytic {
		t.Errorf("outcome backend = %q/%q, want analytic", o.Backend, o.Fidelity)
	}

	coord := inEnv
	coord.Coordination = true
	if got := auto.Pick(coord).Meta().Name; got != "sim" {
		t.Errorf("coordination query routed to %q, want sim", got)
	}

	// A CPU working set under 2× its 2 MiB cache is cache-resident
	// territory: measurement.
	small := inEnv
	small.Work = append([]IPWork(nil), inEnv.Work...)
	small.Work[0] = IPWork{Words: 64 << 10, FlopsPerWord: 32}
	if got := auto.Pick(small).Meta().Name; got != "sim" {
		t.Errorf("cache-resident query routed to %q, want sim", got)
	}
}

// TestSerializedSimDecomposition pins the §V-C measured form: the
// serialized outcome is the sum of per-IP exclusive runs.
func TestSerializedSimDecomposition(t *testing.T) {
	q := twoIPQuery(t, 0.5, 64)
	q.Serialized = true
	o, err := NewSim().Evaluate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	as, opt, err := q.realize()
	if err != nil {
		t.Fatal(err)
	}
	var sum, flops float64
	for _, a := range as {
		res, err := simcache.Run(q.Chip, []sim.Assignment{a}, opt)
		if err != nil {
			t.Fatal(err)
		}
		sum += res.Makespan
		flops += res.TotalFlops
	}
	if o.Makespan != sum || o.TotalFlops != flops {
		t.Errorf("serialized outcome makespan=%v flops=%v, want %v/%v", o.Makespan, o.TotalFlops, sum, flops)
	}
	if math.Abs(o.Attainable-flops/sum) > 1e-9*o.Attainable {
		t.Errorf("serialized rate = %v, want %v", o.Attainable, flops/sum)
	}
}

func TestKeyScoping(t *testing.T) {
	a, err := Key("t/v1", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Key("t/v2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("different scopes must produce different keys")
	}
	if _, err := Key("", 1); err == nil {
		t.Error("empty scope must be rejected")
	}
	if _, err := Key("t/v1", math.NaN()); err == nil {
		t.Error("unkeyable parts must error (callers bypass their cache)")
	}
}

// TestEvaluatorInterfaceCompliance keeps the production backends honest
// against the interface.
func TestEvaluatorInterfaceCompliance(t *testing.T) {
	for _, ev := range []Evaluator{NewAnalytic(), NewSim(), NewAuto(NewAnalytic(), NewSim(), DefaultEnvelope())} {
		m := ev.Meta()
		if m.Name == "" || m.Fidelity == "" || m.Description == "" {
			t.Errorf("%T: incomplete meta %+v", ev, m)
		}
		if err := ev.Supports(Query{}); err == nil {
			t.Errorf("%T: empty query must be unsupported", ev)
		}
		if _, err := ev.Evaluate(context.Background(), Query{}); err == nil {
			t.Errorf("%T: empty query must not evaluate", ev)
		}
	}
}

// TestContextCancellation: a canceled context short-circuits evaluation.
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := twoIPQuery(t, 0.5, 32)
	for _, ev := range []Evaluator{NewAnalytic(), NewSim()} {
		if _, err := ev.Evaluate(ctx, q); err == nil {
			t.Errorf("%s: canceled context must fail", ev.Meta().Name)
		}
	}
}
