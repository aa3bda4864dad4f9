package surrogate

import (
	"context"
	"fmt"
	"math"

	"github.com/gables-model/gables/internal/core"
	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/parallel"
	"github.com/gables-model/gables/internal/sim"
	"github.com/gables-model/gables/internal/units"
)

// Plan is a calibration sweep plan: which IPs to characterize and the
// ERB-style grid to run through the sim backend. The zero value is
// completed per chip by withDefaults; the *effective* plan (after
// defaulting) is what the calibration fingerprint covers, so two chips
// calibrated with equivalent plans share one artifact.
type Plan struct {
	// IPs are the calibrated IPs, first is the reference (A0 = 1).
	// Defaults to every chip IP in declaration order.
	IPs []string `json:"ips"`
	// SweepFlopsPerWord is the single-IP roofline sweep axis (the §IV
	// Algorithm 1 intensity ladder). Defaults to powers of two 1..4096.
	SweepFlopsPerWord []int `json:"sweep_flops_per_word"`
	// SplitFlopsPerWord is the intensity axis of the work-split grid the
	// efficiency table is keyed on. Defaults to {8, 32, 128, 512, 4096}.
	SplitFlopsPerWord []int `json:"split_flops_per_word"`
	// Fractions is the accelerator work-fraction axis of the split grid.
	// Defaults to {0, 0.25, 0.5, 0.75, 1}.
	Fractions []float64 `json:"fractions"`
	// Words is the total array length per cell; defaults to 4 Mi words
	// (16 MiB — DRAM-resident on every catalog IP).
	Words int `json:"words"`
	// Trials is the per-kernel trial count; defaults to 2.
	Trials int `json:"trials"`
	// Pattern is the kernel access variant; defaults to ReadWrite.
	Pattern kernel.Pattern `json:"pattern"`
}

// withDefaults completes the plan for a chip.
func (p Plan) withDefaults(cfg sim.Config) Plan {
	if len(p.IPs) == 0 {
		for _, spec := range cfg.IPs {
			p.IPs = append(p.IPs, spec.Name)
		}
	}
	if len(p.SweepFlopsPerWord) == 0 {
		p.SweepFlopsPerWord = kernel.PowersOfTwo(12)
	}
	if len(p.SplitFlopsPerWord) == 0 {
		p.SplitFlopsPerWord = []int{8, 32, 128, 512, 4096}
	}
	if len(p.Fractions) == 0 {
		p.Fractions = []float64{0, 0.25, 0.5, 0.75, 1}
	}
	if p.Words == 0 {
		p.Words = 4 << 20
	}
	if p.Trials == 0 {
		p.Trials = eval.DefaultTrials
	}
	return p
}

// validate checks the effective plan against the chip.
func (p Plan) validate(cfg sim.Config) error {
	if len(p.IPs) < 1 {
		return fmt.Errorf("surrogate: plan calibrates no IPs")
	}
	names := make(map[string]bool, len(cfg.IPs))
	for _, spec := range cfg.IPs {
		names[spec.Name] = true
	}
	for _, ip := range p.IPs {
		if !names[ip] {
			return fmt.Errorf("surrogate: plan names IP %q not on chip %q", ip, cfg.Name)
		}
	}
	if len(p.SweepFlopsPerWord) < 3 {
		return fmt.Errorf("surrogate: sweep needs at least 3 intensity points to fit a roofline")
	}
	if len(p.SplitFlopsPerWord) == 0 || len(p.Fractions) == 0 {
		return fmt.Errorf("surrogate: split grid is empty")
	}
	for _, f := range p.Fractions {
		if f < 0 || f > 1 {
			return fmt.Errorf("surrogate: split fraction %v outside [0,1]", f)
		}
	}
	if p.Words <= 0 || p.Trials <= 0 {
		return fmt.Errorf("surrogate: plan needs positive Words and Trials")
	}
	return nil
}

// IPFit is one IP's fitted roofline parameters.
type IPFit struct {
	// Name is the chip IP.
	Name string `json:"name"`
	// Peak is the fitted effective compute ceiling in flops/s.
	Peak float64 `json:"peak"`
	// Bandwidth is the fitted effective link bandwidth in bytes/s.
	Bandwidth float64 `json:"bandwidth"`
	// Residual is the max relative error of the fitted roofline against
	// the IP's sweep points.
	Residual float64 `json:"residual"`
}

// EffBucket is one cell of the residual-based efficiency table, keyed by
// kernel shape: the split grid's operational-intensity bucket (by
// FlopsPerWord) × work-split bucket (by accelerator fraction).
type EffBucket struct {
	// FlopsPerWord and Fraction are the bucket's center (a split-grid
	// cell coordinate).
	FlopsPerWord int     `json:"flops_per_word"`
	Fraction     float64 `json:"fraction"`
	// Efficiency is the mean measured/fitted attainable ratio over the
	// bucket's calibration cells.
	Efficiency float64 `json:"efficiency"`
	// Residual is the max relative error of the corrected prediction
	// against the bucket's calibration cells.
	Residual float64 `json:"residual"`
	// Cells counts the calibration cells aggregated into the bucket.
	Cells int `json:"cells"`
}

// Artifact is the persisted calibration: everything needed to rebuild the
// fitted model and its envelope without re-running a single simulation.
// It serializes as deterministic JSON (fixed field order, round-tripping
// floats), so re-fitting the same chip+plan reproduces the file
// byte-for-byte — the CI calibration-determinism check diffs exactly that.
type Artifact struct {
	// Version is the surrogate FingerprintVersion the artifact was
	// written under; loads reject other versions.
	Version int `json:"version"`
	// Fingerprint is the content address: Fingerprint(Spec{Chip, Plan}).
	Fingerprint string `json:"fingerprint"`
	// Chip is the chip name (informational; identity is the fingerprint).
	Chip string `json:"chip"`
	// Plan is the effective (defaulted) sweep plan.
	Plan Plan `json:"plan"`
	// Bpeak is the fitted effective DRAM bandwidth in bytes/s.
	Bpeak float64 `json:"bpeak"`
	// IPs are the per-IP fits, in plan order (first is the reference).
	IPs []IPFit `json:"ips"`
	// Table is the efficiency table, split-grid ordered (intensity-major).
	Table []EffBucket `json:"table"`
	// ResidualMean and ResidualMax aggregate the corrected prediction's
	// relative error over every split-grid calibration cell.
	ResidualMean float64 `json:"residual_mean"`
	ResidualMax  float64 `json:"residual_max"`
}

// DefaultTolerance is the envelope's residual bound: queries whose bucket
// residual (plus the active IPs' fit residuals) exceeds it fall back to
// measurement.
const DefaultTolerance = 0.15

// Calibration is a loaded artifact plus the rebuilt fitted model and
// lookup state the fast path evaluates with.
type Calibration struct {
	Artifact
	chip      sim.Config // the calibrated chip, for per-query identity checks
	tolerance float64
	model     *core.Model
	index     map[string]int // chip IP name → model index
	maxFitRes float64
	labels    []string // Table-aligned bucket labels, precomputed off the hot path
}

// newCalibration rebuilds the evaluation state from an artifact. It is the
// single construction path: Calibrate also goes through it, so a fit and a
// load behave identically. complete=false skips the table validation for
// the mid-calibration base model (the table is derived against it).
func newCalibration(a *Artifact, tolerance float64, complete bool) (*Calibration, error) {
	if len(a.IPs) == 0 {
		return nil, fmt.Errorf("surrogate: artifact %s has no IP fits", a.Fingerprint)
	}
	ref := a.IPs[0]
	soc := &core.SoC{
		Name:            a.Chip + " (surrogate)",
		Peak:            units.OpsPerSec(ref.Peak),
		MemoryBandwidth: units.BytesPerSec(a.Bpeak),
		IPs:             make([]core.IP, len(a.IPs)),
	}
	for i, fit := range a.IPs {
		soc.IPs[i] = core.IP{
			Name:         fit.Name,
			Acceleration: fit.Peak / ref.Peak,
			Bandwidth:    units.BytesPerSec(fit.Bandwidth),
		}
	}
	soc.IPs[0].Acceleration = 1 // guard the reference against float drift
	model, err := core.New(soc)
	if err != nil {
		return nil, fmt.Errorf("surrogate: artifact %s: %w", a.Fingerprint, err)
	}
	c := &Calibration{
		Artifact:  *a,
		tolerance: tolerance,
		model:     model,
		index:     make(map[string]int, len(a.IPs)),
	}
	if c.tolerance <= 0 {
		c.tolerance = DefaultTolerance
	}
	for i, fit := range a.IPs {
		c.index[fit.Name] = i
		c.maxFitRes = math.Max(c.maxFitRes, fit.Residual)
	}
	if complete && len(a.Table) != len(a.Plan.SplitFlopsPerWord)*len(a.Plan.Fractions) {
		return nil, fmt.Errorf("surrogate: artifact %s table has %d buckets for a %d×%d grid",
			a.Fingerprint, len(a.Table), len(a.Plan.SplitFlopsPerWord), len(a.Plan.Fractions))
	}
	c.labels = make([]string, len(a.Table))
	for i, b := range a.Table {
		c.labels[i] = fmt.Sprintf("fpw=%d/f=%v", b.FlopsPerWord, b.Fraction)
	}
	return c, nil
}

// point is one sweep measurement: observed operational intensity and rate.
type point struct {
	i, rate float64
}

// fitRoofline least-squares fits min(Peak, Bandwidth·I) to an IP's sweep:
// a pessimistic first pass seeds the compute/memory classification, then
// Bandwidth is the least-squares slope through the origin of the
// memory-bound points and Peak the least-squares constant (the mean) of
// the compute-bound plateau. The residual is the max relative error of
// the fitted curve over all points.
func fitRoofline(pts []point) (peak, bw, resid float64, err error) {
	if len(pts) == 0 {
		return 0, 0, 0, fmt.Errorf("surrogate: no sweep points to fit")
	}
	for _, p := range pts {
		peak = math.Max(peak, p.rate)
	}
	for _, p := range pts {
		if p.i > 0 && p.rate < 0.98*peak {
			bw = math.Max(bw, p.rate/p.i)
		}
	}
	if bw <= 0 { // flat sweep: everything at the plateau
		for _, p := range pts {
			if p.i > 0 {
				bw = math.Max(bw, p.rate/p.i)
			}
		}
	}
	if peak <= 0 || bw <= 0 {
		return 0, 0, 0, fmt.Errorf("surrogate: degenerate sweep (peak %v, bandwidth %v)", peak, bw)
	}
	// Two refinement rounds are enough: the classification is stable once
	// the seeds are roofline-shaped.
	for round := 0; round < 2; round++ {
		var sumRI, sumII, sumP float64
		nComp := 0
		for _, p := range pts {
			switch {
			case bw*p.i < 0.95*peak: // memory-bound branch
				sumRI += p.rate * p.i
				sumII += p.i * p.i
			case bw*p.i > 1.05*peak: // compute-bound branch
				sumP += p.rate
				nComp++
			}
		}
		if sumII > 0 {
			bw = sumRI / sumII
		}
		if nComp > 0 {
			peak = sumP / float64(nComp)
		}
	}
	for _, p := range pts {
		pred := math.Min(peak, bw*p.i)
		if pred > 0 {
			resid = math.Max(resid, math.Abs(p.rate-pred)/pred)
		}
	}
	return peak, bw, resid, nil
}

// Calibrate runs the plan's sweeps through the sim backend (every cell is
// memoized by simcache, so re-calibration on a warm cache is cheap), fits
// the effective Gables parameters, and derives the efficiency table. The
// result is deterministic: identical (chip, plan) inputs produce a
// byte-identical artifact.
func Calibrate(ctx context.Context, cfg sim.Config, plan Plan) (*Calibration, error) {
	plan = plan.withDefaults(cfg)
	if err := plan.validate(cfg); err != nil {
		return nil, err
	}
	simEv := eval.NewSim()
	a := &Artifact{
		Version:     FingerprintVersion,
		Fingerprint: Fingerprint(Spec{Chip: cfg, Plan: plan}),
		Chip:        cfg.Name,
		Plan:        plan,
	}

	// Per-IP single-IP sweeps → least-squares roofline fits.
	ipIndex := make(map[string]int, len(cfg.IPs))
	for i, spec := range cfg.IPs {
		ipIndex[spec.Name] = i
	}
	type sweepCell struct{ ip, fpw int }
	var sweep []sweepCell
	for _, name := range plan.IPs {
		for _, fpw := range plan.SweepFlopsPerWord {
			sweep = append(sweep, sweepCell{ip: ipIndex[name], fpw: fpw})
		}
	}
	sweepPts, err := parallel.Map(ctx, 0, sweep, func(ctx context.Context, _ int, c sweepCell) (point, error) {
		work := make([]eval.IPWork, len(cfg.IPs))
		work[c.ip] = eval.IPWork{Words: plan.Words, FlopsPerWord: c.fpw, Pattern: plan.Pattern}
		o, err := simEv.Evaluate(ctx, eval.Query{Chip: cfg, Work: work, Trials: plan.Trials})
		if err != nil {
			return point{}, fmt.Errorf("surrogate: sweep %s fpw=%d: %w", cfg.IPs[c.ip].Name, c.fpw, err)
		}
		if len(o.IPs) != 1 || o.IPs[0].Bytes <= 0 {
			return point{}, fmt.Errorf("surrogate: sweep %s fpw=%d: degenerate measurement", cfg.IPs[c.ip].Name, c.fpw)
		}
		return point{i: o.IPs[0].Flops / o.IPs[0].Bytes, rate: o.Attainable}, nil
	})
	if err != nil {
		return nil, err
	}
	n := len(plan.SweepFlopsPerWord)
	for i, name := range plan.IPs {
		peak, bw, resid, err := fitRoofline(sweepPts[i*n : (i+1)*n])
		if err != nil {
			return nil, fmt.Errorf("surrogate: %s: %w", name, err)
		}
		a.IPs = append(a.IPs, IPFit{Name: name, Peak: peak, Bandwidth: bw, Residual: resid})
	}

	// Effective Bpeak: all calibrated IPs concurrently at the sweep's
	// lowest intensity saturate the memory interface; the fit is the
	// least-squares constant (the mean) of the measured aggregate byte
	// rates over two DRAM-resident array sizes.
	minFpw := plan.SweepFlopsPerWord[0]
	for _, fpw := range plan.SweepFlopsPerWord {
		if fpw < minFpw {
			minFpw = fpw
		}
	}
	var rates []float64
	for _, words := range []int{plan.Words, plan.Words * 2} {
		shares := make([]eval.Share, len(plan.IPs))
		for i, name := range plan.IPs {
			shares[i] = eval.Share{IP: name, Fraction: 1 / float64(len(plan.IPs))}
		}
		work, err := eval.SplitWork(cfg, words, minFpw, plan.Pattern, shares)
		if err != nil {
			return nil, err
		}
		o, err := simEv.Evaluate(ctx, eval.Query{Chip: cfg, Work: work, Trials: plan.Trials})
		if err != nil {
			return nil, fmt.Errorf("surrogate: Bpeak probe (words=%d): %w", words, err)
		}
		var bytes float64
		for _, ip := range o.IPs {
			bytes += ip.Bytes
		}
		if o.Makespan <= 0 || bytes <= 0 {
			return nil, fmt.Errorf("surrogate: Bpeak probe (words=%d): degenerate measurement", words)
		}
		rates = append(rates, bytes/o.Makespan)
	}
	for _, r := range rates {
		a.Bpeak += r / float64(len(rates))
	}

	// Rebuild the fitted model, then sweep the work-split grid to derive
	// the efficiency table relative to its uncorrected predictions.
	base, err := newCalibration(a, DefaultTolerance, false)
	if err != nil {
		return nil, err
	}
	base.chip = cfg
	type splitCell struct {
		accel string
		fpw   int
		frac  float64
	}
	var cells []splitCell
	for _, fpw := range plan.SplitFlopsPerWord {
		for _, f := range plan.Fractions {
			for _, accel := range plan.IPs[1:] {
				cells = append(cells, splitCell{accel: accel, fpw: fpw, frac: f})
			}
		}
	}
	if len(plan.IPs) == 1 { // single-IP plan: the "split" axis is all-reference
		for _, fpw := range plan.SplitFlopsPerWord {
			for range plan.Fractions {
				cells = append(cells, splitCell{accel: plan.IPs[0], fpw: fpw, frac: 0})
			}
		}
	}
	type effSample struct{ eff float64 }
	samples, err := parallel.Map(ctx, 0, cells, func(ctx context.Context, _ int, c splitCell) (effSample, error) {
		shares := []eval.Share{{IP: plan.IPs[0], Fraction: 1 - c.frac}, {IP: c.accel, Fraction: c.frac}}
		if c.accel == plan.IPs[0] {
			shares = shares[1:]
		}
		work, err := eval.SplitWork(cfg, plan.Words, c.fpw, plan.Pattern, shares)
		if err != nil {
			return effSample{}, err
		}
		q := eval.Query{Chip: cfg, Work: work, Trials: plan.Trials}
		meas, err := simEv.Evaluate(ctx, q)
		if err != nil {
			return effSample{}, fmt.Errorf("surrogate: split %s f=%v fpw=%d: %w", c.accel, c.frac, c.fpw, err)
		}
		pred, err := base.raw(q)
		if err != nil {
			return effSample{}, fmt.Errorf("surrogate: split %s f=%v fpw=%d: %w", c.accel, c.frac, c.fpw, err)
		}
		if pred.Attainable <= 0 || meas.Attainable <= 0 {
			return effSample{}, fmt.Errorf("surrogate: split %s f=%v fpw=%d: degenerate cell", c.accel, c.frac, c.fpw)
		}
		return effSample{eff: meas.Attainable / pred.Attainable}, nil
	})
	if err != nil {
		return nil, err
	}

	// Bucket the samples: mean efficiency per (intensity, split) bucket,
	// then the residual of the corrected prediction over the bucket's own
	// cells. The sample layout is bucket-major (accels innermost), so each
	// bucket's samples are contiguous.
	per := len(plan.IPs) - 1
	if per == 0 {
		per = 1
	}
	var residSum float64
	residCount := 0
	for bi := 0; bi*per < len(samples); bi++ {
		group := samples[bi*per : (bi+1)*per]
		var mean float64
		for _, s := range group {
			mean += s.eff / float64(len(group))
		}
		var worst float64
		for _, s := range group {
			r := math.Abs(s.eff/mean - 1)
			worst = math.Max(worst, r)
			residSum += r
			residCount++
		}
		fpw := plan.SplitFlopsPerWord[bi/len(plan.Fractions)]
		frac := plan.Fractions[bi%len(plan.Fractions)]
		a.Table = append(a.Table, EffBucket{
			FlopsPerWord: fpw, Fraction: frac,
			Efficiency: mean, Residual: worst, Cells: len(group),
		})
		a.ResidualMax = math.Max(a.ResidualMax, worst)
	}
	if residCount > 0 {
		a.ResidualMean = residSum / float64(residCount)
	}
	cal, err := newCalibration(a, DefaultTolerance, true)
	if err != nil {
		return nil, err
	}
	cal.chip = cfg
	return cal, nil
}

// bucket maps a query's kernel shape onto the efficiency table: the
// aggregate operational-intensity bucket (nearest split-grid FlopsPerWord
// in log space) × the work-split bucket (nearest calibrated accelerator
// fraction). Ties resolve to the lower index, deterministically.
func (c *Calibration) bucket(q eval.Query) int {
	var total, refFlops, words float64
	for i, w := range q.Work {
		if w.Words == 0 {
			continue
		}
		flops := float64(w.Words) * float64(w.FlopsPerWord)
		total += flops
		words += float64(w.Words)
		if mi, ok := c.index[q.Chip.IPs[i].Name]; ok && mi == 0 {
			refFlops = flops
		}
	}
	frac := 1.0
	if total > 0 {
		frac = 1 - refFlops/total
	}
	aggFpw := 0.0
	if words > 0 {
		aggFpw = total / words
	}
	fi := nearest(c.Plan.Fractions, frac)
	li := nearestLog(c.Plan.SplitFlopsPerWord, aggFpw)
	return li*len(c.Plan.Fractions) + fi
}

// nearest returns the index of the closest value (ties to the lower index).
func nearest(axis []float64, v float64) int {
	best, bestD := 0, math.Inf(1)
	for i, a := range axis {
		if d := math.Abs(a - v); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// nearestLog is nearest on a log2 axis of positive ints.
func nearestLog(axis []int, v float64) int {
	if v <= 0 {
		return 0
	}
	lv := math.Log2(v)
	best, bestD := 0, math.Inf(1)
	for i, a := range axis {
		if a <= 0 {
			continue
		}
		if d := math.Abs(math.Log2(float64(a)) - lv); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// Check reports nil when the query lies inside the calibrated envelope,
// where the fitted fast path (Answer) is trusted. The error names the
// first violated bound.
func (c *Calibration) Check(q eval.Query) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if q.Coordination {
		return fmt.Errorf("surrogate: coordination overhead is outside the calibrated envelope")
	}
	if q.Thermal {
		return fmt.Errorf("surrogate: thermal throttling is outside the calibrated envelope")
	}
	if q.Serialized {
		return fmt.Errorf("surrogate: serialized execution was not calibrated (concurrent cells only)")
	}
	if q.MaxEvents != 0 {
		return fmt.Errorf("surrogate: custom event budgets are outside the calibrated envelope")
	}
	if !sim.ConfigEqual(q.Chip, c.chip) {
		return fmt.Errorf("surrogate: chip %q differs from the calibrated configuration %q", q.Chip.Name, c.chip.Name)
	}
	minSweep, maxSweep := c.Plan.SweepFlopsPerWord[0], c.Plan.SweepFlopsPerWord[0]
	for _, fpw := range c.Plan.SweepFlopsPerWord {
		minSweep = min(minSweep, fpw)
		maxSweep = max(maxSweep, fpw)
	}
	for i, w := range q.Work {
		if w.Words == 0 {
			continue
		}
		spec := q.Chip.IPs[i]
		if _, ok := c.index[spec.Name]; !ok {
			return fmt.Errorf("surrogate: IP %q was not calibrated", spec.Name)
		}
		if w.Pattern != c.Plan.Pattern {
			return fmt.Errorf("surrogate: IP %q pattern %v differs from the calibrated %v kernel",
				spec.Name, w.Pattern, c.Plan.Pattern)
		}
		if w.FlopsPerWord < minSweep || w.FlopsPerWord > maxSweep {
			return fmt.Errorf("surrogate: IP %q intensity fpw=%d outside the calibrated range [%d, %d]",
				spec.Name, w.FlopsPerWord, minSweep, maxSweep)
		}
		ws := float64(w.Words * kernel.WordSize)
		if spec.CacheSize > 0 && ws < 2*spec.CacheSize {
			return fmt.Errorf("surrogate: IP %q working set %.0f B is under 2× its %.0f B cache — cache effects were not calibrated",
				spec.Name, ws, spec.CacheSize)
		}
	}
	b := &c.Table[c.bucket(q)]
	if bound := b.Residual + c.maxFitRes; bound > c.tolerance {
		return fmt.Errorf("surrogate: bucket fpw=%d/f=%v residual bound %.3f exceeds tolerance %.3f — measurement required",
			b.FlopsPerWord, b.Fraction, bound, c.tolerance)
	}
	return nil
}

// raw answers a query from the fitted model with no efficiency correction;
// the calibration pass uses it to derive the table.
func (c *Calibration) raw(q eval.Query) (*eval.Outcome, error) {
	return c.answer(q, -1)
}

// Answer is the fast path: the fitted model's closed-form evaluation,
// corrected by the query's efficiency bucket and carrying the
// residual-derived confidence envelope. It is trusted only on queries
// Check accepts.
func (c *Calibration) Answer(q eval.Query) (*eval.Outcome, error) {
	return c.answer(q, c.bucket(q))
}

// bytesPerWord mirrors the eval intensity convention (I = fpw/bpw): 4 for
// read-only kernels, 8 for read+write and stream-copy.
func bytesPerWord(p kernel.Pattern) float64 {
	if p == kernel.ReadOnly {
		return 4
	}
	return 8
}

// answer evaluates the fitted model; bi is the efficiency-bucket index
// (-1 = uncorrected, for the calibration pass itself).
func (c *Calibration) answer(q eval.Query, bi int) (*eval.Outcome, error) {
	trials := q.Trials
	if trials <= 0 {
		trials = eval.DefaultTrials
	}
	work := make([]core.Work, len(c.IPs))
	total := 0.0
	for _, w := range q.Work {
		total += float64(w.Words) * float64(w.FlopsPerWord) * float64(trials)
	}
	if total <= 0 {
		return nil, fmt.Errorf("surrogate: query assigns no work")
	}
	for i, w := range q.Work {
		if w.Words == 0 {
			continue
		}
		mi, ok := c.index[q.Chip.IPs[i].Name]
		if !ok {
			return nil, fmt.Errorf("surrogate: fitted model has no IP %q", q.Chip.IPs[i].Name)
		}
		work[mi] = core.Work{
			Fraction:  float64(w.Words) * float64(w.FlopsPerWord) * float64(trials) / total,
			Intensity: units.Intensity(float64(w.FlopsPerWord) / bytesPerWord(w.Pattern)),
		}
	}
	u := &core.Usecase{Name: "surrogate-query", Work: work}
	res, err := c.model.Evaluate(u)
	if err != nil {
		return nil, err
	}
	eff := 1.0
	if bi >= 0 {
		eff = c.Table[bi].Efficiency
	}
	o := &eval.Outcome{
		Backend:    "surrogate",
		Fidelity:   eval.FidelityAnalytic,
		Attainable: float64(res.Attainable) * eff,
		TotalFlops: total,
		Bottleneck: canonicalBottleneck(res.Bottleneck),
		TieRatio:   tieRatio(res),
	}
	if o.Attainable > 0 {
		o.Makespan = total / o.Attainable
	}
	if bi >= 0 {
		bound := c.Table[bi].Residual + c.maxFitRes
		o.Confidence = &eval.Confidence{
			RelErrBound: bound,
			Lo:          o.Attainable * (1 - bound),
			Hi:          o.Attainable * (1 + bound),
			Bucket:      c.labels[bi],
			Efficiency:  eff,
		}
	}
	// Per-IP detail: the model's unit-work minimum times scaled to the
	// query's total, with the efficiency correction applied uniformly
	// (the calibration observes the aggregate slowdown, not its split).
	for mi, br := range res.IPs {
		if u.Work[mi].Fraction == 0 {
			continue
		}
		ip := eval.IPOutcome{
			IP:    c.IPs[mi].Name,
			Flops: u.Work[mi].Fraction * total,
			Bytes: float64(br.Data) * total,
			Time:  float64(br.Time) * total / eff,
		}
		if ip.Time > 0 {
			ip.Rate = ip.Flops / ip.Time
		}
		o.IPs = append(o.IPs, ip)
	}
	return o, nil
}

// canonicalBottleneck mirrors eval's cross-backend bottleneck vocabulary.
func canonicalBottleneck(comp core.Component) eval.Bottleneck {
	switch comp.Kind {
	case "memory":
		return eval.Bottleneck{Kind: "memory", Name: "DRAM"}
	case "bus":
		return eval.Bottleneck{Kind: "bus", Name: comp.Name}
	default:
		return eval.Bottleneck{Kind: "IP", Name: comp.Name}
	}
}

// tieRatio is the analytic tie measure eval reports as TieRatio: the
// second-tightest constraint time over the tightest (core's batch kernel
// computes it from CellResults.TopTime and SecondTime).
func tieRatio(res *core.Result) float64 {
	var first, second float64 // the largest positive times, first >= second
	note := func(t float64) {
		switch {
		case t <= 0:
		case t > first:
			first, second = t, first
		case t > second:
			second = t
		}
	}
	for _, br := range res.IPs {
		note(float64(br.Time))
	}
	note(float64(res.MemoryTime))
	for _, bt := range res.BusTimes {
		note(float64(bt))
	}
	if second == 0 {
		return 0
	}
	return second / first
}
