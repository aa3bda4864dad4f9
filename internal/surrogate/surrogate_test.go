package surrogate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
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

// TestCalibrationDeterministic re-fits the same chip+plan and requires an
// identical fit at full precision: reflect.DeepEqual compares every fitted
// float with ==, so a one-ulp drift fails. The CI calibration-determinism
// step checks the same across processes by diffing two gables-erb
// -calibrate runs, and TestAnswerGoldens' surrogate groups pin the fits'
// answers against a committed file.
func TestCalibrationDeterministic(t *testing.T) {
	a, b := testCalibration(t).Artifact, testCalibration(t).Artifact
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("re-fitting produced a different fit:\n--- first\n%+v\n--- second\n%+v", a, b)
	}
}

// TestCalibrationWritesNothing pins that fits live in memory only: the
// default backend no longer reads a calibration directory from the
// environment, so the directory the removed GABLES_CALIBRATION_DIR names
// stays empty after a fit.
func TestCalibrationWritesNothing(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("GABLES_CALIBRATION_DIR", dir)
	if _, err := Default().Calibration(context.Background(), testChip()); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("a fit wrote %d files into %s", len(entries), dir)
	}
}

// TestStatsModelOrder: each distinct chip is fitted once, and Models is
// sorted by chip name with chips of one name in first-seen order.
func TestStatsModelOrder(t *testing.T) {
	backend := New(Options{})
	drifted := testChip()
	drifted.DRAMBandwidth *= 2
	chips := []sim.Config{drifted, sim.Snapdragon821(), testChip(), drifted}
	for _, cfg := range chips {
		if _, err := backend.Calibration(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	s := backend.Stats()
	if s.Calibrations != 3 || len(s.Models) != 3 {
		t.Fatalf("calibrations=%d models=%d, want 3 of each", s.Calibrations, len(s.Models))
	}
	for i, want := range []string{sim.Snapdragon821().Name, drifted.Name, testChip().Name} {
		if s.Models[i].Chip != want {
			t.Errorf("Models[%d].Chip = %q, want %q", i, s.Models[i].Chip, want)
		}
	}
	// The drifted chip was seen first, so it sorts first among its name;
	// doubling DRAM bandwidth raises its fitted Bpeak.
	if s.Models[1].Bpeak <= s.Models[2].Bpeak {
		t.Errorf("same-name models out of first-seen order: Bpeak %v then %v", s.Models[1].Bpeak, s.Models[2].Bpeak)
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

// TestArtifactRoundTrip pins Artifact's contract: it is everything a fit
// is rebuilt from, so a Calibration rebuilt from a fit's own Artifact by
// newCalibration checks and answers byte-identically to the fit.
func TestArtifactRoundTrip(t *testing.T) {
	cal := testCalibration(t)
	a := cal.Artifact
	rebuilt, err := newCalibration(&a, testChip())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rebuilt.Artifact, cal.Artifact) {
		t.Fatalf("rebuilt artifact differs:\n--- fit\n%+v\n--- rebuilt\n%+v", cal.Artifact, rebuilt.Artifact)
	}
	queries := []eval.Query{
		twoIP(t, 0.5, 512, 4<<20),
		twoIP(t, 0.25, 64, 4<<20),
		twoIP(t, 0.75, 2048, 4<<20),
		twoIP(t, 1, 8, 4<<20), // high-residual bucket: outside the envelope
	}
	for i, q := range queries {
		wantErr, gotErr := cal.Check(q), rebuilt.Check(q)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("query %d: fit's check %v, rebuilt's %v", i, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		want, err := cal.Answer(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		got, err := rebuilt.Answer(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		wj, _ := json.Marshal(want)
		gj, _ := json.Marshal(got)
		if !bytes.Equal(wj, gj) {
			t.Errorf("query %d: rebuilt calibration answers differently:\nfit:     %s\nrebuilt: %s", i, wj, gj)
		}
	}
}

// TestFailedCalibrationRetries: a fit that fails (here, on a canceled
// context) is not latched; the next query for the chip fits it afresh.
func TestFailedCalibrationRetries(t *testing.T) {
	backend := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := backend.Calibration(ctx, testChip()); !errors.Is(err, context.Canceled) {
		t.Fatalf("fit on a canceled context: err = %v, want context.Canceled", err)
	}
	if s := backend.Stats(); s.Calibrations != 0 || len(s.Models) != 0 {
		t.Fatalf("after a failed fit: calibrations=%d models=%d, want 0/0", s.Calibrations, len(s.Models))
	}
	o, err := backend.Evaluate(context.Background(), twoIP(t, 0.5, 512, 4<<20))
	if err != nil {
		t.Fatalf("retry after a failed fit: %v", err)
	}
	if o.Backend != "surrogate" {
		t.Fatalf("retried query answered by %q, want the fitted fast path", o.Backend)
	}
	if s := backend.Stats(); s.Calibrations != 1 || len(s.Models) != 1 {
		t.Fatalf("after the retry: calibrations=%d models=%d, want 1/1", s.Calibrations, len(s.Models))
	}
}

// TestConfigEqualTracksFingerprint pins the surrogate's chip identity to
// the simulator's: a chip change that moves sim's fingerprint of the chip
// (the identity simcache keys the calibration sweeps by) must take the
// chip out of the calibrated envelope and get a fit of its own from the
// backend, not the reference chip's. Both rest on sim.ConfigEqual, whose
// agreement with the fingerprint over every field sim's test of the same
// name checks.
func TestConfigEqualTracksFingerprint(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*sim.Config)
	}{
		{"name", func(c *sim.Config) { c.Name += "x" }},
		{"dram", func(c *sim.Config) { c.DRAMBandwidth *= 2 }},
		{"host", func(c *sim.Config) { c.Host = "GPU" }},
		{"ip-name", func(c *sim.Config) { c.IPs[1].Name += "x" }}, // IPs[0] is the host
		{"ip-rate", func(c *sim.Config) { c.IPs[1].ComputeRate *= 2 }},
		{"ip-link", func(c *sim.Config) { c.IPs[1].LinkBandwidth *= 2 }},
		{"ip-write-penalty", func(c *sim.Config) { c.IPs[0].WritePenalty += 0.5 }},
		{"ip-cache", func(c *sim.Config) { c.IPs[0].CacheSize *= 2 }},
		{"ip-chunk", func(c *sim.Config) { c.IPs[0].ChunkBytes += 4096 }},
		{"ip-inflight", func(c *sim.Config) { c.IPs[0].MaxInflight++ }},
		{"ip-latency", func(c *sim.Config) { c.IPs[0].MemoryLatency += 1e-6 }},
		{"ip-dropped", func(c *sim.Config) { c.IPs = c.IPs[:len(c.IPs)-1] }},
	}
	chipFP := func(c sim.Config) string { return sim.Fingerprint(c, nil, sim.RunOptions{}) }
	backend := New(Options{})
	cal, err := backend.Calibration(context.Background(), testChip())
	if err != nil {
		t.Fatal(err)
	}
	refFP := chipFP(testChip())
	if err := cal.Check(twoIP(t, 0.5, 512, 4<<20)); err != nil {
		t.Fatalf("the calibrated chip is outside its own envelope: %v", err)
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			mutated := testChip()
			m.mut(&mutated)
			if chipFP(mutated) == refFP {
				t.Fatalf("mutation %q did not change the chip's fingerprint; pick a covered field", m.name)
			}
			q := twoIP(t, 0.5, 512, 4<<20)
			q.Chip, q.Work = mutated, q.Work[:len(mutated.IPs)]
			if err := cal.Check(q); err == nil || !strings.Contains(err.Error(), "differs from the calibrated configuration") {
				t.Fatalf("a chip with a new fingerprint passed the envelope's chip check: %v", err)
			}
			before := backend.Stats().Calibrations
			got, err := backend.Calibration(context.Background(), mutated)
			if err != nil {
				t.Fatal(err)
			}
			if got == cal || backend.Stats().Calibrations != before+1 {
				t.Fatal("the backend served the reference chip's fit for a chip with a new fingerprint")
			}
		})
	}
}
