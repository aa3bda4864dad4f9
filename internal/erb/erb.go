// Package erb is the empirical-roofline harness: it applies the paper's
// §IV methodology — run the Algorithm 1 micro-benchmark across operational
// intensities and array sizes, take the best achieved performance as a
// pessimistic ("ceiling") roofline estimate — to the simulated SoC, just as
// the paper's Android app applies it to Snapdragon silicon. The name nods
// to the Empirical Roofline Toolkit that inspired the kernel's structure.
package erb

import (
	"context"
	"fmt"

	"github.com/gables-model/gables/internal/core"
	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/parallel"
	"github.com/gables-model/gables/internal/roofline"
	"github.com/gables-model/gables/internal/sim"
	"github.com/gables-model/gables/internal/simcache"
	"github.com/gables-model/gables/internal/units"
)

// SweepOptions configure a roofline measurement.
type SweepOptions struct {
	// Pattern is the kernel variant: the paper uses ReadWrite on the
	// CPU and DSP and StreamCopy on the GPU.
	Pattern kernel.Pattern
	// WorkingSet is the array footprint; it should be far larger than
	// any on-chip cache so the DRAM roofline is measured. Defaults to
	// 16 MiB.
	WorkingSet units.Bytes
	// Trials repeats each kernel; defaults to 3.
	Trials int
	// MaxExp sweeps flops-per-word over powers of two up to 2^MaxExp;
	// defaults to 11 (1..2048).
	MaxExp int
	// Workers bounds the sweep's worker pool; 0 uses the
	// GABLES_PARALLEL/GOMAXPROCS default.
	Workers int
}

func (o *SweepOptions) applyDefaults() {
	if o.WorkingSet == 0 {
		o.WorkingSet = 16 << 20
	}
	if o.Trials == 0 {
		o.Trials = 3
	}
	if o.MaxExp == 0 {
		o.MaxExp = 11
	}
}

// MeasureRoofline sweeps the micro-benchmark on one IP of the simulated
// SoC (device-resident, no coordination — the §IV-B methodology) and
// returns the measured points plus the fitted pessimistic roofline.
func MeasureRoofline(sys *sim.System, ipName string, opts SweepOptions) ([]roofline.Point, *roofline.Model, error) {
	opts.applyDefaults()
	kernels, err := kernel.Sweep(ipName, opts.WorkingSet, opts.Trials,
		kernel.PowersOfTwo(opts.MaxExp), opts.Pattern)
	if err != nil {
		return nil, nil, err
	}
	// Each intensity point is an independent measurement; each goes
	// through the content-addressed result cache, which builds a fresh
	// sim.System per computed point (runs never share an engine) and
	// coalesces concurrent workers computing the same point.
	pts, err := parallel.Map(context.Background(), opts.Workers, kernels,
		func(_ context.Context, _ int, k kernel.Kernel) (roofline.Point, error) {
			//lint:ignore evalboundary raw §IV measurement substrate: sweeps characterize the machine the evaluators answer queries about
			res, err := simcache.Run(sys.Config(), []sim.Assignment{{IP: ipName, Kernel: k}}, sim.RunOptions{})
			if err != nil {
				return roofline.Point{}, fmt.Errorf("erb: sweep %s: %w", k.Name, err)
			}
			r := res.IPs[0]
			if r.Bytes <= 0 || r.Rate <= 0 {
				return roofline.Point{}, fmt.Errorf("erb: sweep %s: degenerate measurement", k.Name)
			}
			return roofline.Point{
				// Intensity as observed: flops per byte actually moved.
				Intensity:  units.Intensity(r.Flops / r.Bytes),
				Attainable: units.OpsPerSec(r.Rate),
			}, nil
		})
	if err != nil {
		return nil, nil, err
	}
	fit, err := roofline.Fit(ipName, pts)
	if err != nil {
		return nil, nil, err
	}
	return pts, fit, nil
}

// CachePoint is one sample of a footprint sweep.
type CachePoint struct {
	// WorkingSet is the array footprint.
	WorkingSet units.Bytes
	// Bandwidth is the achieved bytes/s.
	Bandwidth units.BytesPerSec
}

// MeasureCacheBandwidth sweeps array sizes at low intensity, reproducing
// the §IV-B observation that "the CPU can obtain higher bandwidth from its
// internal caches by using smaller micro-benchmark array sizes."
func MeasureCacheBandwidth(sys *sim.System, ipName string, sizes []units.Bytes, p kernel.Pattern) ([]CachePoint, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("erb: no sizes to sweep")
	}
	var out []CachePoint
	for _, ws := range sizes {
		k := kernel.Kernel{
			Name: fmt.Sprintf("%s/ws=%d", ipName, int(ws)), WorkingSet: ws,
			Trials: 8, FlopsPerWord: 1, Pattern: p,
		}
		//lint:ignore evalboundary raw §IV measurement substrate: the cache-size sweep characterizes the memory hierarchy itself
		res, err := simcache.Run(sys.Config(), []sim.Assignment{{IP: ipName, Kernel: k}}, sim.RunOptions{})
		if err != nil {
			return nil, err
		}
		out = append(out, CachePoint{WorkingSet: ws, Bandwidth: units.BytesPerSec(res.IPs[0].Bandwidth)})
	}
	return out, nil
}

// MixingPoint is one cell of the §IV-C mixing analysis (the paper's
// Figure 8): the performance of running fraction f of a fixed total work
// on the accelerator, concurrently with the CPU's 1−f share, normalized to
// all work on the CPU at intensity 1.
type MixingPoint struct {
	// F is the fraction of work at the accelerator.
	F float64
	// FlopsPerWord selects the line (intensity = FlopsPerWord/8 under
	// the read+write kernel).
	FlopsPerWord int
	// Rate is the absolute concurrent throughput in flops/s.
	Rate float64
	// Normalized is Rate over the baseline.
	Normalized float64
}

// MixingOptions configure the experiment.
type MixingOptions struct {
	// CPU and Accel name the two IPs; the work split is between them.
	CPU, Accel string
	// Fractions lists the f values; defaults to 0..1 in eighths, the
	// paper's x-axis.
	Fractions []float64
	// FlopsPerWord lists the intensity lines; defaults to
	// {8, 32, 128, 512, 2048, 8192} — operational intensities
	// {1, 4, 16, 64, 256, 1024} under the 8-bytes-per-word read+write
	// kernel, the paper's lines.
	FlopsPerWord []int
	// Words is the total array length; total work per line is
	// Words×FlopsPerWord×Trials regardless of the split. Defaults to
	// 4 Mi words (16 MiB).
	Words int
	// Trials defaults to 2.
	Trials int
	// Workers bounds the grid's worker pool; 0 uses the
	// GABLES_PARALLEL/GOMAXPROCS default.
	Workers int
	// Evaluator answers the grid's queries; nil means eval.NewSim(). The
	// experiment charges host coordination, so backends that cannot
	// represent it (analytic) reject the grid rather than silently
	// answering a different question.
	Evaluator eval.Evaluator
}

func (o *MixingOptions) applyDefaults() {
	if len(o.Fractions) == 0 {
		for i := 0; i <= 8; i++ {
			o.Fractions = append(o.Fractions, float64(i)/8)
		}
	}
	if len(o.FlopsPerWord) == 0 {
		o.FlopsPerWord = []int{8, 32, 128, 512, 2048, 8192}
	}
	if o.Words == 0 {
		o.Words = 4 << 20
	}
	if o.Trials == 0 {
		o.Trials = 2
	}
}

// MixingResult holds the full grid plus the baseline.
type MixingResult struct {
	// BaselineRate is all-CPU performance at intensity 1 (flops/s),
	// the normalization denominator.
	BaselineRate float64
	// Points holds one entry per (line, fraction), line-major.
	Points []MixingPoint
}

// Mixing runs the §IV-C experiment on the simulated SoC: the CPU and the
// accelerator split the array and run concurrently with host coordination
// charged (the IPs are devices the CPU shepherds), total work held constant
// within each line.
func Mixing(sys *sim.System, opts MixingOptions) (*MixingResult, error) {
	opts.applyDefaults()
	if opts.CPU == "" || opts.Accel == "" || opts.CPU == opts.Accel {
		return nil, fmt.Errorf("erb: mixing needs two distinct IPs, got %q and %q", opts.CPU, opts.Accel)
	}
	for _, f := range opts.Fractions {
		if f < 0 || f > 1 {
			return nil, fmt.Errorf("erb: mixing fraction %v outside [0,1]", f)
		}
	}

	ev := opts.Evaluator
	if ev == nil {
		ev = eval.NewSim()
	}

	// run answers one cell through the evaluator contract. The default sim
	// backend measures through the result cache: a computed cell gets its
	// own freshly instantiated system (runs never share an engine),
	// repeated cells — the baseline reappears in the grid as (f=0, fpw=8) —
	// are served from memory, and concurrent workers on the same cell
	// coalesce onto one computation.
	run := func(ctx context.Context, f float64, fpw int) (float64, error) {
		work, err := eval.SplitWork(sys.Config(), opts.Words, fpw, kernel.ReadWrite, []eval.Share{
			{IP: opts.CPU, Fraction: 1 - f}, {IP: opts.Accel, Fraction: f},
		})
		if err != nil {
			return 0, err
		}
		o, err := ev.Evaluate(ctx, eval.Query{
			Chip: sys.Config(), Work: work, Trials: opts.Trials, Coordination: true,
		})
		if err != nil {
			return 0, err
		}
		return o.Attainable, nil
	}

	baseline, err := run(context.Background(), 0, 8) // all CPU at intensity 1
	if err != nil {
		return nil, fmt.Errorf("erb: mixing baseline: %w", err)
	}
	if baseline <= 0 {
		return nil, fmt.Errorf("erb: mixing baseline rate is zero")
	}

	type gridCell struct {
		fpw int
		f   float64
	}
	var grid []gridCell
	for _, fpw := range opts.FlopsPerWord {
		for _, f := range opts.Fractions {
			grid = append(grid, gridCell{fpw: fpw, f: f})
		}
	}
	points, err := parallel.Map(context.Background(), opts.Workers, grid,
		func(ctx context.Context, _ int, c gridCell) (MixingPoint, error) {
			rate, err := run(ctx, c.f, c.fpw)
			if err != nil {
				return MixingPoint{}, fmt.Errorf("erb: mixing f=%v fpw=%d: %w", c.f, c.fpw, err)
			}
			return MixingPoint{
				F: c.f, FlopsPerWord: c.fpw,
				Rate: rate, Normalized: rate / baseline,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return &MixingResult{BaselineRate: baseline, Points: points}, nil
}

// Line extracts one intensity line of the grid, in fraction order.
func (m *MixingResult) Line(fpw int) []MixingPoint {
	var out []MixingPoint
	for _, p := range m.Points {
		if p.FlopsPerWord == fpw {
			out = append(out, p)
		}
	}
	return out
}

// DeriveGables measures rooflines for the named IPs (the first is the
// reference CPU) and assembles the core Gables SoC description from them —
// the §IV → §III bridge: acceleration Ai and bandwidth Bi per IP from
// measurement, Bpeak from the system's configured DRAM rate. patterns maps
// IP name to its kernel variant; missing entries use ReadWrite.
func DeriveGables(sys *sim.System, ipNames []string, patterns map[string]kernel.Pattern) (*core.SoC, error) {
	if len(ipNames) == 0 {
		return nil, fmt.Errorf("erb: no IPs to derive from")
	}
	fits := make([]*roofline.Model, len(ipNames))
	for i, name := range ipNames {
		p := kernel.ReadWrite
		if patterns != nil {
			if pp, ok := patterns[name]; ok {
				p = pp
			}
		}
		_, fit, err := MeasureRoofline(sys, name, SweepOptions{Pattern: p})
		if err != nil {
			return nil, err
		}
		fits[i] = fit
	}
	ref := fits[0]
	s := &core.SoC{
		Name:            sys.Config().Name + " (measured)",
		Peak:            ref.Peak,
		MemoryBandwidth: units.BytesPerSec(sys.Config().DRAMBandwidth),
	}
	for i, fit := range fits {
		s.IPs = append(s.IPs, core.IP{
			Name:         ipNames[i],
			Acceleration: float64(fit.Peak) / float64(ref.Peak),
			Bandwidth:    fit.Bandwidth,
		})
	}
	// Guard against floating-point drift on the reference's A0.
	s.IPs[0].Acceleration = 1
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
