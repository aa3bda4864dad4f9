package eval

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim"
)

// presetBuilders are the three serving chip presets.
var presetBuilders = map[string]func() sim.Config{
	"snapdragon835":  sim.Snapdragon835,
	"snapdragon821":  sim.Snapdragon821,
	"snapdragon835x": sim.Snapdragon835Extended,
}

// presetQueries makes a grid of serving-shaped queries with p: two- and
// three-IP splits over intensities, alternating serialized cells.
func presetQueries(t *testing.T, p *Preset) []Query {
	t.Helper()
	var qs []Query
	for i, shares := range [][]Share{
		{{IP: "GPU", Fraction: 0.25}, {IP: "CPU", Fraction: 0.75}},
		{{IP: "GPU", Fraction: 1}, {IP: "CPU", Fraction: 0}},
		{{IP: "GPU", Fraction: 0.375}, {IP: "DSP", Fraction: 0.125}, {IP: "CPU", Fraction: 0.5}},
	} {
		for j, fpw := range []int{8, 32, 512, 4096} {
			q := p.Query()
			work, err := SplitWork(q.Chip, 4<<20, fpw, kernel.ReadWrite, shares)
			if err != nil {
				t.Fatal(err)
			}
			q.Work, q.Trials, q.Serialized = work, DefaultTrials, (i+j)%3 == 2
			qs = append(qs, q)
		}
	}
	return qs
}

// unlinked returns qs on a fresh copy of chip with no preset link, so
// every answer derives its model afresh.
func unlinked(qs []Query, chip sim.Config) []Query {
	out := make([]Query, len(qs))
	for i, q := range qs {
		out[i] = Query{Chip: chip, Work: q.Work, Trials: q.Trials, Serialized: q.Serialized}
	}
	return out
}

// TestPresetPlanMatchesDerive pins the compiled plan to a fresh
// derivation for every preset: slab and point answers of queries made by
// the preset are bitwise the reference outcome (built from derive and
// core.(*Model).Evaluate) and the answers of the same queries on an
// unlinked fresh chip, and they really come from the plan.
func TestPresetPlanMatchesDerive(t *testing.T) {
	ctx := context.Background()
	a := NewAnalytic()
	for name, build := range presetBuilders {
		p := NewPreset(build())
		if p.plan == nil {
			t.Fatalf("%s: preset compiled no plan", name)
		}
		qs := presetQueries(t, p)
		fresh := unlinked(qs, build())
		got := make([]Outcome, len(qs))
		if err := a.EvaluateBatch(ctx, qs, got); err != nil {
			t.Fatal(err)
		}
		want := make([]Outcome, len(fresh))
		if err := a.EvaluateBatch(ctx, fresh, want); err != nil {
			t.Fatal(err)
		}
		for i := range qs {
			if be, _, err := analyticPlan(&qs[i]); err != nil || be != p.plan {
				t.Errorf("%s query %d: answered from a fresh derivation, not the preset's plan", name, i)
			}
			outcomesBitEq(t, name+" slab", got[i], referenceOutcome(t, a, qs[i]))
			outcomesBitEq(t, name+" slab vs unlinked", got[i], &want[i])
			pt, err := a.Evaluate(ctx, qs[i])
			if err != nil {
				t.Fatal(err)
			}
			outcomesBitEq(t, name+" point", *pt, &want[i])
			fpGot, err1 := Fingerprint(qs[i])
			fpWant, err2 := Fingerprint(fresh[i])
			if err1 != nil || err2 != nil || fpGot != fpWant {
				t.Errorf("%s query %d: fingerprint %s (%v), unlinked %s (%v)", name, i, fpGot, err1, fpWant, err2)
			}
		}
	}
}

// TestPresetGuardDerives pins the plan's one guard: a query made by a
// preset whose chip no longer is that preset (swapped, mutated in a copy,
// or written through the preset's own backing after NewPreset), or whose
// work is not all ReadWrite, is answered from a fresh derivation of what
// it now holds, alone and in a slab beside a query the plan answers.
func TestPresetGuardDerives(t *testing.T) {
	ctx := context.Background()
	a := NewAnalytic()
	p := NewPreset(sim.Snapdragon835())
	base := presetQueries(t, p)[0]

	swapped := base
	swapped.Chip = sim.Snapdragon821()

	copied := base
	copied.Chip.IPs = append([]sim.IPSpec(nil), base.Chip.IPs...)
	copied.Chip.IPs[0].ComputeRate /= 2

	dram := base
	dram.Chip.DRAMBandwidth /= 100

	readOnly := base
	readOnly.Work = append([]IPWork(nil), base.Work...)
	readOnly.Work[0].Pattern = kernel.ReadOnly

	written := sim.Snapdragon835()
	stale := NewPreset(written)
	written.IPs[0].ComputeRate /= 2 // through the preset's own backing
	behind := stale.Query()
	behind.Work, behind.Trials = base.Work, base.Trials

	before, err := a.Evaluate(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		q    Query
	}{
		{"swapped chip", swapped},
		{"mutated copy", copied},
		{"slower DRAM", dram},
		{"read-only work", readOnly},
		{"written backing", behind},
	} {
		if be, _, err := analyticPlan(&tc.q); err != nil || be == p.plan || be == stale.plan {
			t.Errorf("%s: answered from the preset's plan", tc.name)
		}
		got, err := a.Evaluate(ctx, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		outcomesBitEq(t, tc.name, *got, referenceOutcome(t, a, tc.q))
		if reflect.DeepEqual(got, before) {
			t.Errorf("%s: the change did not move the answer, so it cannot tell the plan from a derivation", tc.name)
		}
		out := make([]Outcome, 2)
		if err := a.EvaluateBatch(ctx, []Query{base, tc.q}, out); err != nil {
			t.Fatal(err)
		}
		outcomesBitEq(t, tc.name+" slab", out[1], referenceOutcome(t, a, tc.q))
		outcomesBitEq(t, tc.name+" slab preset", out[0], before)
	}
}

// TestPresetConcurrentUse shares one preset among goroutines that answer
// and fingerprint its queries at once, as a server's requests do; under
// -race it pins that compiled state is only read.
func TestPresetConcurrentUse(t *testing.T) {
	ctx := context.Background()
	a := NewAnalytic()
	qs := presetQueries(t, NewPreset(sim.Snapdragon835Extended()))
	want := make([]Outcome, len(qs))
	if err := a.EvaluateBatch(ctx, qs, want); err != nil {
		t.Fatal(err)
	}
	fps := make([]string, len(qs))
	for i := range qs {
		var err error
		if fps[i], err = Fingerprint(qs[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range qs {
				got, err := a.Evaluate(ctx, qs[i])
				if err != nil || !reflect.DeepEqual(*got, want[i]) {
					t.Errorf("query %d: %+v (%v), want %+v", i, got, err, want[i])
				}
				if fp, err := Fingerprint(qs[i]); err != nil || fp != fps[i] {
					t.Errorf("query %d: fingerprint %s (%v), want %s", i, fp, err, fps[i])
				}
			}
		}()
	}
	wg.Wait()
}
