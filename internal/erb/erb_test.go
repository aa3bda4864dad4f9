package erb

import (
	"math"
	"reflect"
	"testing"

	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim"
	"github.com/gables-model/gables/internal/simcache"
	"github.com/gables-model/gables/internal/units"
)

func system(t *testing.T) *sim.System {
	t.Helper()
	s, err := sim.New(sim.Snapdragon835())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFigure7aCPU fits the CPU roofline from simulated measurements and
// checks the paper's Figure 7a headline numbers.
func TestFigure7aCPU(t *testing.T) {
	sys := system(t)
	pts, fit, err := MeasureRoofline(sys, "CPU", SweepOptions{Pattern: kernel.ReadWrite})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 12 { // powers of two 1..2048
		t.Fatalf("points = %d, want 12", len(pts))
	}
	if got := fit.Peak.Gops(); math.Abs(got-7.5)/7.5 > 0.03 {
		t.Errorf("CPU peak = %v GFLOPS/s, paper: 7.5", got)
	}
	if got := fit.Bandwidth.GB(); math.Abs(got-15.1)/15.1 > 0.05 {
		t.Errorf("CPU bandwidth = %v GB/s, paper: 15.1", got)
	}
}

// TestFigure7bGPU checks Figure 7b via the stream kernel.
func TestFigure7bGPU(t *testing.T) {
	sys := system(t)
	_, fit, err := MeasureRoofline(sys, "GPU", SweepOptions{Pattern: kernel.StreamCopy})
	if err != nil {
		t.Fatal(err)
	}
	if got := fit.Peak.Gops(); math.Abs(got-349.6)/349.6 > 0.03 {
		t.Errorf("GPU peak = %v GFLOPS/s, paper: 349.6", got)
	}
	if got := fit.Bandwidth.GB(); math.Abs(got-24.4)/24.4 > 0.05 {
		t.Errorf("GPU bandwidth = %v GB/s, paper: 24.4", got)
	}
	// The §IV-B acceleration estimate: A1 ≈ 47×.
	_, cpuFit, err := MeasureRoofline(sys, "CPU", SweepOptions{Pattern: kernel.ReadWrite})
	if err != nil {
		t.Fatal(err)
	}
	a := float64(fit.Peak) / float64(cpuFit.Peak)
	if a < 44 || a > 50 {
		t.Errorf("A1 = %v, paper: 46.6 ≈ 47", a)
	}
}

// TestFigure9DSP checks the DSP scalar unit's roofline.
func TestFigure9DSP(t *testing.T) {
	sys := system(t)
	_, fit, err := MeasureRoofline(sys, "DSP", SweepOptions{
		Pattern: kernel.ReadWrite, WorkingSet: 8 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fit.Peak.Gops(); math.Abs(got-3.0)/3.0 > 0.03 {
		t.Errorf("DSP peak = %v GFLOPS/s, paper: 3.0", got)
	}
	if got := fit.Bandwidth.GB(); math.Abs(got-5.4)/5.4 > 0.06 {
		t.Errorf("DSP bandwidth = %v GB/s, Figure 9: 5.4", got)
	}
}

func TestMeasureRooflineErrors(t *testing.T) {
	sys := system(t)
	if _, _, err := MeasureRoofline(sys, "ghost", SweepOptions{}); err == nil {
		t.Error("unknown IP must be rejected")
	}
}

func TestMeasureCacheBandwidth(t *testing.T) {
	sys := system(t)
	sizes := []units.Bytes{256 << 10, 1 << 20, 16 << 20}
	pts, err := MeasureCacheBandwidth(sys, "CPU", sizes, kernel.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Small footprints (fit the 2 MiB cache) must beat the DRAM-bound
	// large footprint — the §IV-B cache observation.
	if pts[0].Bandwidth <= pts[2].Bandwidth {
		t.Errorf("cache-resident %v must beat DRAM-bound %v",
			pts[0].Bandwidth.GB(), pts[2].Bandwidth.GB())
	}
	if _, err := MeasureCacheBandwidth(sys, "CPU", nil, kernel.ReadOnly); err == nil {
		t.Error("empty sweep must be rejected")
	}
}

// TestFigure8Mixing checks the qualitative shape the paper reports: low
// intensity offload slows down; high intensity offload approaches the
// ~39–47× acceleration.
func TestFigure8Mixing(t *testing.T) {
	sys := system(t)
	res, err := Mixing(sys, MixingOptions{
		CPU: "CPU", Accel: "GPU",
		Fractions:    []float64{0, 0.25, 0.5, 0.75, 1},
		FlopsPerWord: []int{8, 512, 8192},
		Words:        2 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineRate <= 0 {
		t.Fatal("baseline rate missing")
	}

	low := res.Line(8) // intensity 1
	if len(low) != 5 {
		t.Fatalf("line length = %d", len(low))
	}
	if low[0].Normalized < 0.97 || low[0].Normalized > 1.03 {
		t.Errorf("f=0 at I=1 must be the baseline, got %v", low[0].Normalized)
	}
	if last := low[len(low)-1]; last.Normalized >= 1 {
		t.Errorf("full offload at I=1 must slow down, got %v×", last.Normalized)
	}

	high := res.Line(8192) // intensity 1024
	best := 0.0
	for _, p := range high {
		if p.Normalized > best {
			best = p.Normalized
		}
	}
	if best < 25 || best > 50 {
		t.Errorf("peak speedup at I=1024 = %v×, paper observes 39.4", best)
	}
	// Monotone trend across intensities at f=1: more reuse, more win.
	if high[len(high)-1].Normalized <= low[len(low)-1].Normalized {
		t.Error("speedup at f=1 must grow with intensity")
	}
}

func TestMixingValidation(t *testing.T) {
	sys := system(t)
	if _, err := Mixing(sys, MixingOptions{CPU: "CPU", Accel: "CPU"}); err == nil {
		t.Error("same IP twice must be rejected")
	}
	if _, err := Mixing(sys, MixingOptions{CPU: "CPU", Accel: "GPU",
		Fractions: []float64{2}}); err == nil {
		t.Error("fraction > 1 must be rejected")
	}
	if _, err := Mixing(sys, MixingOptions{}); err == nil {
		t.Error("missing IP names must be rejected")
	}
}

// TestGridsIndependentOfWorkers pins that the mixing and validation grids
// come out identical at any pool size. Each run starts from an empty
// result cache so every cell is computed by the pool under test rather
// than served from the previous run.
func TestGridsIndependentOfWorkers(t *testing.T) {
	sys := system(t)
	run := func(workers int) (*MixingResult, *ValidationResult) {
		simcache.ResetDefault()
		mix, err := Mixing(sys, MixingOptions{CPU: "CPU", Accel: "GPU", Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		simcache.ResetDefault()
		val, err := ValidateModel(sys, ValidationOptions{CPU: "CPU", Accel: "GPU", Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return mix, val
	}
	mix1, val1 := run(1)
	mix4, val4 := run(4)
	if !reflect.DeepEqual(mix1, mix4) {
		t.Errorf("mixing grid differs between 1 and 4 workers:\n1: %+v\n4: %+v", mix1, mix4)
	}
	if !reflect.DeepEqual(val1, val4) {
		t.Errorf("validation grid differs between 1 and 4 workers:\n1: %+v\n4: %+v", val1, val4)
	}
}

func TestDeriveGables(t *testing.T) {
	sys := system(t)
	s, err := DeriveGables(sys, []string{"CPU", "GPU", "DSP"},
		map[string]kernel.Pattern{"GPU": kernel.StreamCopy})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("derived SoC invalid: %v", err)
	}
	if s.IPs[0].Acceleration != 1 {
		t.Error("reference acceleration must be exactly 1")
	}
	aGPU := s.IPs[1].Acceleration
	if aGPU < 44 || aGPU > 50 {
		t.Errorf("derived A_GPU = %v, want ~46.6", aGPU)
	}
	aDSP := s.IPs[2].Acceleration
	if aDSP < 0.35 || aDSP > 0.45 {
		t.Errorf("derived A_DSP = %v, want ~0.4", aDSP)
	}
	if s.MemoryBandwidth.GB() != 30 {
		t.Errorf("Bpeak = %v, want 30", s.MemoryBandwidth.GB())
	}

	if _, err := DeriveGables(sys, nil, nil); err == nil {
		t.Error("empty IP list must be rejected")
	}
}
