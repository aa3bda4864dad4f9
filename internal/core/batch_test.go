package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/gables-model/gables/internal/units"
)

// randomModel builds a seeded random model: 1–4 IPs, optional SRAM
// (either placement) and optional buses over random IP subsets.
func randomModel(rng *rand.Rand) *Model {
	n := 1 + rng.Intn(4)
	s := &SoC{
		Name:            "batch-prop",
		Peak:            units.OpsPerSec(1e9 * (0.5 + rng.Float64()*4)),
		MemoryBandwidth: units.BytesPerSec(1e9 * (0.5 + rng.Float64()*30)),
		IPs:             make([]IP, n),
	}
	for i := range s.IPs {
		a := 1.0
		if i > 0 {
			a = 0.25 + rng.Float64()*8
		}
		s.IPs[i] = IP{
			Name:         "IP" + string(rune('A'+i)),
			Acceleration: a,
			Bandwidth:    units.BytesPerSec(1e9 * (0.5 + rng.Float64()*20)),
		}
	}
	m := &Model{SoC: s}
	if rng.Intn(2) == 0 {
		sr := &SRAM{Name: "sys-cache", MissRatio: make([]float64, n), FiltersBusTraffic: rng.Intn(2) == 0}
		for i := range sr.MissRatio {
			sr.MissRatio[i] = rng.Float64()
		}
		m.SRAM = sr
	}
	for j := 0; j < rng.Intn(3); j++ {
		bus := Bus{Name: "bus" + string(rune('0'+j)), Bandwidth: units.BytesPerSec(1e9 * (0.5 + rng.Float64()*10))}
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				bus.Users = append(bus.Users, i)
			}
		}
		if len(bus.Users) == 0 {
			bus.Users = []int{rng.Intn(n)}
		}
		m.Buses = append(m.Buses, bus)
	}
	return m
}

// randomWork builds a valid random work vector: some IPs idle, fractions
// normalized to sum to 1 within FractionTolerance.
func randomWork(rng *rand.Rand, n int) []Work {
	w := make([]Work, n)
	sum := 0.0
	for i := range w {
		if n > 1 && rng.Intn(3) == 0 {
			continue // idle IP
		}
		w[i].Fraction = 0.05 + rng.Float64()
		w[i].Intensity = units.Intensity(math.Exp(rng.Float64()*8 - 2)) // ~[0.14, 400) ops/byte
		sum += w[i].Fraction
	}
	if sum == 0 {
		w[0].Fraction = 1
		w[0].Intensity = units.Intensity(1 + rng.Float64()*10)
		return w
	}
	for i := range w {
		w[i].Fraction /= sum
	}
	return w
}

// bitEq compares float64s bitwise (so -0 vs 0 and NaN patterns count as
// differences — the batch contract is exact replication, not tolerance).
func bitEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestBatchMatchesEvaluateBitwise is the batch path's load-bearing
// property: over seeded random models and work vectors, EvaluateAll
// reproduces Evaluate/EvaluateSerialized bit-for-bit — every sweep that
// migrates onto the batch evaluator keeps byte-identical artifacts.
func TestBatchMatchesEvaluateBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		m := randomModel(rng)
		n := len(m.SoC.IPs)
		be, err := m.Batch()
		if err != nil {
			t.Fatalf("trial %d: Batch: %v", trial, err)
		}
		const cells = 8
		cs := NewCells(n, cells)
		works := make([][]Work, cells)
		for c := 0; c < cells; c++ {
			works[c] = randomWork(rng, n)
			for i, w := range works[c] {
				cs.Set(c, i, w.Fraction, float64(w.Intensity))
			}
		}
		res := NewCellResults(n, cells)
		serialized := trial%2 == 1
		if err := be.EvaluateAll(cs, serialized, res); err != nil {
			t.Fatalf("trial %d: EvaluateAll: %v", trial, err)
		}
		for c := 0; c < cells; c++ {
			u := &Usecase{Name: "cell", Work: works[c]}
			var want *Result
			if serialized {
				want, err = m.EvaluateSerialized(u)
			} else {
				want, err = m.Evaluate(u)
			}
			if err != nil {
				t.Fatalf("trial %d cell %d: point evaluate: %v", trial, c, err)
			}
			check := func(name string, got, wantV float64) {
				t.Helper()
				if !bitEq(got, wantV) {
					t.Errorf("trial %d cell %d (serialized=%v): %s = %x, point API %x",
						trial, c, serialized, name, math.Float64bits(got), math.Float64bits(wantV))
				}
			}
			check("Attainable", res.Attainable[c], float64(want.Attainable))
			check("Time", res.Time[c], float64(want.Time))
			check("MemoryTime", res.MemoryTime[c], float64(want.MemoryTime))
			check("MemoryTraffic", res.MemoryTraffic[c], float64(want.MemoryTraffic))
			check("AvgIntensity", res.AvgIntensity[c], float64(want.AvgIntensity))
			if res.Bottleneck[c] != want.Bottleneck {
				t.Errorf("trial %d cell %d: bottleneck %+v, point API %+v", trial, c, res.Bottleneck[c], want.Bottleneck)
			}
			for i := 0; i < n; i++ {
				check("IPData", res.IPData[c*n+i], float64(want.IPs[i].Data))
				check("IPTime", res.IPTime[c*n+i], float64(want.IPs[i].Time))
			}
			top, second := tieTimes(want)
			check("TopTime", res.TopTime[c], top)
			check("SecondTime", res.SecondTime[c], second)
		}
	}
}

// tieTimes recomputes the reference largest/second-largest positive
// constraint times from a point-API Result (the tie-ratio inputs).
func tieTimes(res *Result) (top, second float64) {
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
	first, snd := math.Inf(-1), math.Inf(-1)
	for _, tm := range times {
		if tm > first {
			first, snd = tm, first
		} else if tm > snd {
			snd = tm
		}
	}
	if len(times) == 0 {
		return 0, 0
	}
	if len(times) < 2 {
		return first, 0
	}
	return first, snd
}

// TestBatchRejectsInvalidCells pins that the batch path rejects exactly
// the work vectors the point API rejects.
func TestBatchRejectsInvalidCells(t *testing.T) {
	s, err := TwoIP("batch-invalid", 1e9, 10e9, 4, 5e9, 20e9)
	if err != nil {
		t.Fatal(err)
	}
	m := &Model{SoC: s}
	be, err := m.Batch()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		work []Work
	}{
		{"negative fraction", []Work{{Fraction: -0.5, Intensity: 1}, {Fraction: 1.5, Intensity: 1}}},
		{"sum below one", []Work{{Fraction: 0.25, Intensity: 1}, {Fraction: 0.25, Intensity: 1}}},
		{"zero intensity with work", []Work{{Fraction: 0.5, Intensity: 0}, {Fraction: 0.5, Intensity: 1}}},
		{"nan fraction", []Work{{Fraction: math.NaN(), Intensity: 1}, {Fraction: 1, Intensity: 1}}},
	}
	for _, tc := range cases {
		cs := NewCells(2, 1)
		for i, w := range tc.work {
			cs.Set(0, i, w.Fraction, float64(w.Intensity))
		}
		res := NewCellResults(2, 1)
		if err := be.EvaluateAll(cs, false, res); err == nil {
			t.Errorf("%s: batch accepted an invalid cell", tc.name)
		}
		u := &Usecase{Name: tc.name, Work: tc.work}
		if _, err := m.Evaluate(u); err == nil {
			t.Errorf("%s: point API accepted what batch rejects", tc.name)
		}
	}
}

// TestBatchShapeChecks pins the arena-shape errors.
func TestBatchShapeChecks(t *testing.T) {
	s, err := TwoIP("batch-shape", 1e9, 10e9, 4, 5e9, 20e9)
	if err != nil {
		t.Fatal(err)
	}
	be, err := (&Model{SoC: s}).Batch()
	if err != nil {
		t.Fatal(err)
	}
	if err := be.EvaluateAll(NewCells(3, 1), false, NewCellResults(3, 1)); err == nil {
		t.Error("width mismatch accepted")
	}
	if err := be.EvaluateAll(NewCells(2, 4), false, NewCellResults(2, 2)); err == nil {
		t.Error("short arena accepted")
	}
}

// TestBatchEvaluateZeroAlloc is the acceptance criterion in its sharpest
// form: once the buffers exist, evaluating a grid allocates nothing — the
// static //gables:allocfree contract, measured.
func TestBatchEvaluateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomModel(rng)
	n := len(m.SoC.IPs)
	be, err := m.Batch()
	if err != nil {
		t.Fatal(err)
	}
	const cells = 256
	cs := NewCells(n, cells)
	for c := 0; c < cells; c++ {
		for i, w := range randomWork(rng, n) {
			cs.Set(c, i, w.Fraction, float64(w.Intensity))
		}
	}
	res := NewCellResults(n, cells)
	for _, serialized := range []bool{false, true} {
		allocs := testing.AllocsPerRun(20, func() {
			if err := be.EvaluateAll(cs, serialized, res); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("serialized=%v: %v allocs per %d-cell batch, want 0", serialized, allocs, cells)
		}
	}
}

// TestCellResultsArena pins NewCellResults at three allocations, for an
// arena that escapes, and that its float64 windows neither overlap nor
// leave room to append into a neighbour.
func TestCellResultsArena(t *testing.T) {
	var res *CellResults
	if allocs := testing.AllocsPerRun(20, func() { res = NewCellResults(3, 64) }); allocs != 3 {
		t.Errorf("NewCellResults allocates %v times, want 3", allocs)
	}
	res = NewCellResults(3, 4)
	fields := [][]float64{res.Attainable, res.Time, res.MemoryTime, res.MemoryTraffic,
		res.AvgIntensity, res.TopTime, res.SecondTime, res.IPData, res.IPTime}
	for k, f := range fields {
		for i := range f {
			f[i] = float64(k + 1)
		}
	}
	for k, f := range fields {
		want := 4
		if k >= 7 {
			want = 12
		}
		if len(f) != want || cap(f) != want {
			t.Errorf("field %d: len %d cap %d, want %d", k, len(f), cap(f), want)
		}
		for i, v := range f {
			if v != float64(k+1) {
				t.Fatalf("field %d[%d] = %v: windows overlap", k, i, v)
			}
		}
	}
}
