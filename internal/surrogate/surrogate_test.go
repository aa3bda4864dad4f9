package surrogate

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim"
)

func testChip() sim.Config { return sim.Snapdragon835() }

func testCalibration(t *testing.T) *Calibration {
	t.Helper()
	cal, err := Calibrate(context.Background(), testChip(), Plan{})
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

// twoIP builds the canonical in-envelope CPU/GPU split query.
func twoIP(t testing.TB, f float64, fpw, words int) eval.Query {
	t.Helper()
	cfg := testChip()
	work, err := eval.SplitWork(cfg, words, fpw, kernel.ReadWrite, []eval.Share{
		{IP: "CPU", Fraction: 1 - f}, {IP: "GPU", Fraction: f},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eval.Query{Chip: cfg, Work: work, Trials: 2}
}

func TestCalibrateFitsSane(t *testing.T) {
	cal := testCalibration(t)
	cfg := testChip()
	if cal.Bpeak <= 0 || cal.Bpeak > 1.2*cfg.DRAMBandwidth {
		t.Errorf("fitted Bpeak %.3g implausible against configured DRAM %.3g", cal.Bpeak, cfg.DRAMBandwidth)
	}
	if len(cal.IPs) != len(cfg.IPs) {
		t.Fatalf("calibrated %d IPs, chip has %d", len(cal.IPs), len(cfg.IPs))
	}
	for _, fit := range cal.IPs {
		if fit.Peak <= 0 || fit.Bandwidth <= 0 {
			t.Errorf("IP %s: degenerate fit Peak=%v BW=%v", fit.Name, fit.Peak, fit.Bandwidth)
		}
		// The sweeps run through the same substrate the fit mimics: the
		// per-IP roofline should be a tight fit.
		if fit.Residual > 0.05 {
			t.Errorf("IP %s: fit residual %.4f above 5%%", fit.Name, fit.Residual)
		}
	}
	if want := len(cal.Plan.SplitFlopsPerWord) * len(cal.Plan.Fractions); len(cal.Table) != want {
		t.Fatalf("efficiency table has %d buckets, want %d", len(cal.Table), want)
	}
	for _, b := range cal.Table {
		if b.Efficiency <= 0 || b.Cells == 0 {
			t.Errorf("bucket fpw=%d/f=%v: degenerate (eff=%v cells=%d)", b.FlopsPerWord, b.Fraction, b.Efficiency, b.Cells)
		}
	}
}

// TestCalibrationDeterministic re-fits the same chip+plan and requires a
// byte-identical artifact — the same property the CI
// calibration-determinism step checks across processes.
func TestCalibrationDeterministic(t *testing.T) {
	a, err := Encode(&testCalibration(t).Artifact)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(&testCalibration(t).Artifact)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("re-fitting produced a different artifact:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	cal := testCalibration(t)
	store := NewStore(t.TempDir())
	path, err := store.Save(&cal.Artifact)
	if err != nil {
		t.Fatal(err)
	}
	got, err := store.Load(cal.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatalf("Load(%s) found nothing at %s", cal.Fingerprint, path)
	}
	reEnc, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := Encode(&cal.Artifact)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, reEnc) {
		t.Fatal("artifact did not round-trip byte-identically")
	}

	// Unknown fingerprints and stale versions both mean "re-fit", not an
	// error.
	if a, err := store.Load("deadbeef"); err != nil || a != nil {
		t.Fatalf("missing artifact: got (%v, %v), want (nil, nil)", a, err)
	}
	stale := cal.Artifact
	stale.Version = FingerprintVersion + 1
	if _, err := store.Save(&stale); err != nil {
		t.Fatal(err)
	}
	if a, err := store.Load(stale.Fingerprint); err != nil || a != nil {
		t.Fatalf("stale-version artifact: got (%v, %v), want (nil, nil)", a, err)
	}
}

// TestBackendPersistsAndLoads checks the content-addressed artifact cycle:
// one backend fits and persists, a second backend warm-starts from the
// artifact and answers identically.
func TestBackendPersistsAndLoads(t *testing.T) {
	dir := t.TempDir()
	q := twoIP(t, 0.5, 512, 4<<20)

	first := New(Options{Dir: dir})
	o1, err := first.Evaluate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if s := first.Stats(); s.Calibrations != 1 || s.ArtifactLoads != 0 {
		t.Fatalf("first backend: calibrations=%d loads=%d, want 1/0", s.Calibrations, s.ArtifactLoads)
	}

	second := New(Options{Dir: dir})
	o2, err := second.Evaluate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if s := second.Stats(); s.Calibrations != 0 || s.ArtifactLoads != 1 {
		t.Fatalf("second backend: calibrations=%d loads=%d, want 0/1", s.Calibrations, s.ArtifactLoads)
	}
	j1, _ := json.Marshal(o1)
	j2, _ := json.Marshal(o2)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("loaded calibration answers differently:\n%s\n%s", j1, j2)
	}
}

func TestEnvelopeCheck(t *testing.T) {
	cal := testCalibration(t)
	base := func() eval.Query { return twoIP(t, 0.5, 512, 4<<20) }

	if err := cal.Check(base()); err != nil {
		t.Fatalf("canonical in-envelope query rejected: %v", err)
	}

	cases := []struct {
		name string
		make func() eval.Query
	}{
		{"coordination", func() eval.Query { q := base(); q.Coordination = true; return q }},
		{"thermal", func() eval.Query { q := base(); q.Thermal = true; return q }},
		{"serialized", func() eval.Query { q := base(); q.Serialized = true; return q }},
		{"max-events", func() eval.Query { q := base(); q.MaxEvents = 1 << 20; return q }},
		{"wrong-pattern", func() eval.Query {
			q := base()
			for i := range q.Work {
				q.Work[i].Pattern = kernel.ReadOnly
			}
			return q
		}},
		{"intensity-above-sweep", func() eval.Query { return twoIP(t, 0.5, 8192, 4<<20) }},
		{"cache-resident", func() eval.Query { return twoIP(t, 0.5, 512, 1<<10) }},
		{"chip-drift", func() eval.Query {
			q := base()
			q.Chip.DRAMBandwidth *= 2
			return q
		}},
		{"high-residual-bucket", func() eval.Query {
			// The all-GPU low-intensity corner mixes link- and
			// DRAM-bound accel cells: its bucket residual exceeds the
			// tolerance, so the honest answer is "measure".
			return twoIP(t, 1, 8, 4<<20)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := cal.Check(tc.make()); err == nil {
				t.Fatal("out-of-envelope query accepted")
			}
		})
	}
}

func TestUncalibratedIPRejected(t *testing.T) {
	cfg := testChip()
	cal, err := Calibrate(context.Background(), cfg, Plan{IPs: []string{"CPU", "GPU"}})
	if err != nil {
		t.Fatal(err)
	}
	work, err := eval.SplitWork(cfg, 4<<20, 512, kernel.ReadWrite, []eval.Share{
		{IP: "CPU", Fraction: 0.5}, {IP: "DSP", Fraction: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cal.Check(eval.Query{Chip: cfg, Work: work, Trials: 2}); err == nil {
		t.Fatal("query on uncalibrated DSP accepted")
	}
}

// TestFallbackByteIdentical pins the fallback contract: an out-of-envelope
// query answered through the surrogate backend is byte-identical to asking
// the sim backend directly (no Confidence, no drift).
func TestFallbackByteIdentical(t *testing.T) {
	backend := New(Options{})
	simEv := eval.NewSim()
	outs := []eval.Query{
		func() eval.Query { q := twoIP(t, 0.5, 512, 4<<20); q.Serialized = true; return q }(),
		func() eval.Query { q := twoIP(t, 0.5, 512, 4<<20); q.Coordination = true; return q }(),
		twoIP(t, 1, 8, 4<<20), // high-residual bucket
	}
	for i, q := range outs {
		got, err := backend.Evaluate(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want, err := simEv.Evaluate(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if !bytes.Equal(gj, wj) {
			t.Errorf("query %d: fallback diverges from sim:\nsurrogate: %s\nsim:       %s", i, gj, wj)
		}
		if got.Confidence != nil {
			t.Errorf("query %d: fallback outcome carries a Confidence envelope", i)
		}
	}
	if s := backend.Stats(); s.Fallbacks != uint64(len(outs)) || s.FastAnswers != 0 {
		t.Errorf("counters: fast=%d fallbacks=%d, want 0/%d", s.FastAnswers, s.Fallbacks, len(outs))
	}
}

func TestFastAnswerConfidence(t *testing.T) {
	backend := New(Options{})
	q := twoIP(t, 0.5, 512, 4<<20)
	o, err := backend.Evaluate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if o.Backend != "surrogate" || o.Fidelity != eval.FidelityAnalytic {
		t.Fatalf("fast answer attributed to %q/%q", o.Backend, o.Fidelity)
	}
	c := o.Confidence
	if c == nil {
		t.Fatal("fast answer carries no Confidence envelope")
	}
	if c.RelErrBound <= 0 || c.Lo > o.Attainable || o.Attainable > c.Hi {
		t.Fatalf("confidence envelope inconsistent: bound=%v lo=%v att=%v hi=%v",
			c.RelErrBound, c.Lo, o.Attainable, c.Hi)
	}
	if c.Bucket == "" || c.Efficiency <= 0 {
		t.Fatalf("confidence metadata empty: %+v", c)
	}
	if s := backend.Stats(); s.FastAnswers != 1 || s.Fallbacks != 0 {
		t.Errorf("counters: fast=%d fallbacks=%d, want 1/0", s.FastAnswers, s.Fallbacks)
	}
	if len(backend.Stats().Models) == 0 {
		t.Error("stats carry no model summary")
	}
}

// TestConfigEqualTracksFingerprint pins the surrogate's two chip
// identities to each other: a chip change that moves the calibration's
// content address must also take the chip out of the calibrated envelope.
// Both rest on sim's encoder and sim.ConfigEqual, whose agreement over
// every field sim's test of the same name checks.
func TestConfigEqualTracksFingerprint(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*sim.Config)
	}{
		{"name", func(c *sim.Config) { c.Name += "x" }},
		{"dram", func(c *sim.Config) { c.DRAMBandwidth *= 2 }},
		{"host", func(c *sim.Config) { c.Host = "GPU" }},
		{"ip-name", func(c *sim.Config) { c.IPs[0].Name += "x" }},
		{"ip-rate", func(c *sim.Config) { c.IPs[1].ComputeRate *= 2 }},
		{"ip-link", func(c *sim.Config) { c.IPs[1].LinkBandwidth *= 2 }},
		{"ip-write-penalty", func(c *sim.Config) { c.IPs[0].WritePenalty += 0.5 }},
		{"ip-cache", func(c *sim.Config) { c.IPs[0].CacheSize *= 2 }},
		{"ip-chunk", func(c *sim.Config) { c.IPs[0].ChunkBytes += 4096 }},
		{"ip-inflight", func(c *sim.Config) { c.IPs[0].MaxInflight++ }},
		{"ip-latency", func(c *sim.Config) { c.IPs[0].MemoryLatency += 1e-6 }},
		{"ip-dropped", func(c *sim.Config) { c.IPs = c.IPs[:len(c.IPs)-1] }},
	}
	cal := testCalibration(t)
	refFP := Fingerprint(Spec{Chip: testChip(), Plan: cal.Plan})
	if err := cal.Check(twoIP(t, 0.5, 512, 4<<20)); err != nil {
		t.Fatalf("the calibrated chip is outside its own envelope: %v", err)
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			mutated := testChip()
			m.mut(&mutated)
			if Fingerprint(Spec{Chip: mutated, Plan: cal.Plan}) == refFP {
				t.Fatalf("mutation %q did not change the calibration fingerprint; pick a covered field", m.name)
			}
			q := twoIP(t, 0.5, 512, 4<<20)
			q.Chip, q.Work = mutated, q.Work[:len(mutated.IPs)]
			if err := cal.Check(q); err == nil || !strings.Contains(err.Error(), "differs from the calibrated configuration") {
				t.Fatalf("a chip with a new fingerprint passed the envelope's chip check: %v", err)
			}
		})
	}
}
