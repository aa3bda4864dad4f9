// Package eval unifies the repository's two answers to the Gables
// question — "how fast can this SoC run this usecase?" — behind one
// Evaluator interface. The paper computes the answer at two fidelities:
// the closed-form N-IP roofline model (§III, internal/core) and
// measurement of the machine (§IV, reproduced by internal/sim +
// internal/erb), and insists the two agree in shape and within reasonable
// relative error. This package makes that agreement a contract:
//
//   - Query is the canonical SoC+usecase question, expressed in the
//     measurement substrate's terms (a sim.Config plus per-IP kernel
//     work). Both backends answer the same Query, so the differential
//     oracle (differential.go) can hold them to documented agreement
//     bands.
//   - Analytic answers from the closed-form model (Equations 1–4/9–11,
//     §V-C serialized form), either derived from the chip's configured
//     parameters or wrapping an injected calibrated core.Model.
//   - Sim answers by measuring the discrete-event substrate through
//     internal/simcache.Run — the single cache integration and, via
//     simcache.SetProbeFactory, the single trace.Probe attachment point
//     for every backend that executes simulated work.
//   - The registry (registry.go) lets the web server and harnesses
//     select a backend by name (analytic|sim|auto), with "auto" choosing
//     analytic only inside the calibrated envelope. There is no process
//     default: each caller names its backend or is handed one.
//
// Queries are canonically fingerprinted (fingerprint.go) by extending
// sim.Fingerprint, so an Outcome's identity is content-addressed exactly
// like a raw simulation run's.
package eval

import (
	"context"
	"fmt"

	"github.com/gables-model/gables/internal/jsonenc"
	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim"
	"github.com/gables-model/gables/internal/units"
)

// IPWork is one IP's share of a Query: Words array elements processed by
// an Algorithm 1 kernel with the given FlopsPerWord and access pattern.
// Work is expressed in exact words — not float fractions — so a Query is
// bit-reproducible by both backends: the sim realizes it verbatim as
// kernel assignments, and the analytic derives work fractions
// fi = flops_i/Σflops and intensities Ii = FlopsPerWord/(bytes per word)
// from it.
type IPWork struct {
	// Words is the array length assigned to this IP; 0 means the IP is
	// idle in this query.
	Words int
	// FlopsPerWord sets the operational intensity: I = FlopsPerWord/8
	// for read+write and stream-copy kernels, /4 for read-only.
	FlopsPerWord int
	// Pattern selects the kernel access variant (default ReadWrite).
	Pattern kernel.Pattern
}

// Query is the canonical evaluation question: this chip, this per-IP
// work, these execution semantics. Work is index-aligned with Chip.IPs.
type Query struct {
	// Chip describes the SoC in the measurement substrate's terms.
	//
	//fp:delegate encoded wholesale by sim.Fingerprint, which realize() feeds the chip into; sim's own //fp:lock tracks its shape
	Chip sim.Config
	// Work assigns kernel work per IP, index-aligned with Chip.IPs.
	Work []IPWork
	// Trials is the per-kernel trial count; defaults to 2.
	Trials int
	// Serialized evaluates the §V-C exclusive-work form: IPs run one at
	// a time instead of concurrently.
	Serialized bool
	// Coordination charges host coordination overhead (§IV-C); only the
	// sim backend can represent it.
	Coordination bool
	// Thermal enables the thermal throttle governor; only the sim
	// backend can represent it.
	Thermal bool
	// MaxEvents bounds the simulated event count (0 = sim default).
	MaxEvents int

	// preset links a query made by Preset.Query to its compiled chip. It
	// never changes an answer or a fingerprint, only how they are computed:
	// its midstate and plan are used only while Chip, which is encoded,
	// still equals the preset's chip.
	preset *Preset
}

// Fidelity classifies how an Evaluator produces answers.
type Fidelity string

const (
	// FidelityAnalytic marks closed-form model evaluation.
	FidelityAnalytic Fidelity = "analytic"
	// FidelitySimulation marks discrete-event measurement.
	FidelitySimulation Fidelity = "simulation"
)

// Meta describes an Evaluator.
type Meta struct {
	// Name is the registry name (e.g. "analytic", "sim", "auto").
	Name string
	// Fidelity classifies the answers; "auto" reports the fidelity it
	// would pick most often, while each Outcome records the actual one.
	Fidelity Fidelity
	// Description is a one-line summary for -backend help text.
	Description string
}

// Bottleneck names the component that limits a Query, in a canonical
// cross-backend vocabulary.
type Bottleneck struct {
	// Kind is "IP", "memory", or "bus".
	Kind string `json:"kind"`
	// Name is the IP or bus name; "DRAM" for memory.
	Name string `json:"name"`
}

func (b Bottleneck) String() string {
	if b.Kind == "memory" {
		return "memory interface"
	}
	return fmt.Sprintf("%s %s", b.Kind, b.Name)
}

// IPOutcome is one active IP's share of an Outcome.
type IPOutcome struct {
	// IP names the chip IP.
	IP string `json:"ip"`
	// Flops is the operations the IP performed (or was bound to).
	Flops float64 `json:"flops"`
	// Bytes is the IP's data movement.
	Bytes float64 `json:"bytes"`
	// Time is the IP's busy (analytic: minimum) time in seconds.
	Time float64 `json:"time"`
	// Rate is Flops/Time in flops/s.
	Rate float64 `json:"rate"`
}

// Outcome is an Evaluator's answer.
type Outcome struct {
	// Backend names the evaluator that produced the answer (the
	// registry name of the concrete backend, even under "auto").
	Backend string `json:"backend"`
	// Fidelity is the producing backend's fidelity.
	Fidelity Fidelity `json:"fidelity"`
	// Attainable is the answer in flops/s: the analytic Pattainable, or
	// the measured concurrent throughput.
	Attainable float64 `json:"attainable"`
	// Makespan is the (predicted or measured) time for the query's
	// total work, in seconds.
	Makespan float64 `json:"makespan"`
	// TotalFlops is the query's total work.
	TotalFlops float64 `json:"total_flops"`
	// Bottleneck attributes the limit.
	Bottleneck Bottleneck `json:"bottleneck"`
	// TieRatio, analytic only, is the second-tightest constraint time
	// over the tightest (1 = exact tie, 0 = single constraint): the
	// differential oracle's near-tie escape for bottleneck attribution.
	TieRatio float64 `json:"tie_ratio,omitempty"`
	// DRAMUtilization, sim only, is measured DRAM busy fraction.
	DRAMUtilization float64 `json:"dram_utilization,omitempty"`
	// Confidence, surrogate only, bounds the answer with the fitted
	// model's calibration residuals. Backends that answer exactly (sim)
	// or within the differential oracle's global bands (analytic) leave
	// it nil — in particular, a surrogate fallback to sim carries no
	// Confidence, keeping the fallback byte-identical to the sim backend.
	Confidence *Confidence `json:"confidence,omitempty"`
	// IPs holds per-IP detail for the active IPs, in chip order.
	IPs []IPOutcome `json:"ips"`
}

// Confidence is a residual-derived envelope around a fitted-model answer:
// the producing backend asserts the true (measured) Attainable lies within
// RelErrBound of the reported one, based on the calibration residuals of
// the bucket that answered.
type Confidence struct {
	// RelErrBound is the asserted relative error bound on Attainable.
	RelErrBound float64 `json:"rel_err_bound"`
	// Lo and Hi are Attainable·(1∓RelErrBound), the asserted interval.
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// Bucket names the calibration bucket that answered (e.g.
	// "fpw=512/f=0.5"), for residual-table triage.
	Bucket string `json:"bucket"`
	// Efficiency is the calibrated sim/analytic correction applied.
	Efficiency float64 `json:"efficiency"`
}

// AppendJSON writes o as encoding/json writes it — every field in
// declaration order under its tag, omitempty fields left out when zero —
// so the serving layer can encode responses without reflection. Keep it in
// step with the struct tags above; web's shape-lock test fails otherwise.
func (o *Outcome) AppendJSON(w *jsonenc.Writer) {
	if o == nil {
		w.Null()
		return
	}
	w.BeginObject()
	w.Key("backend")
	w.String(o.Backend)
	w.Key("fidelity")
	w.String(string(o.Fidelity))
	w.Key("attainable")
	w.Float(o.Attainable)
	w.Key("makespan")
	w.Float(o.Makespan)
	w.Key("total_flops")
	w.Float(o.TotalFlops)
	w.Key("bottleneck")
	w.BeginObject()
	w.Key("kind")
	w.String(o.Bottleneck.Kind)
	w.Key("name")
	w.String(o.Bottleneck.Name)
	w.EndObject()
	if o.TieRatio != 0 {
		w.Key("tie_ratio")
		w.Float(o.TieRatio)
	}
	if o.DRAMUtilization != 0 {
		w.Key("dram_utilization")
		w.Float(o.DRAMUtilization)
	}
	if c := o.Confidence; c != nil {
		w.Key("confidence")
		w.BeginObject()
		w.Key("rel_err_bound")
		w.Float(c.RelErrBound)
		w.Key("lo")
		w.Float(c.Lo)
		w.Key("hi")
		w.Float(c.Hi)
		w.Key("bucket")
		w.String(c.Bucket)
		w.Key("efficiency")
		w.Float(c.Efficiency)
		w.EndObject()
	}
	w.Key("ips")
	if o.IPs == nil {
		w.Null()
	} else {
		w.BeginArray()
		for i := range o.IPs {
			ip := &o.IPs[i]
			w.Element()
			w.BeginObject()
			w.Key("ip")
			w.String(ip.IP)
			w.Key("flops")
			w.Float(ip.Flops)
			w.Key("bytes")
			w.Float(ip.Bytes)
			w.Key("time")
			w.Float(ip.Time)
			w.Key("rate")
			w.Float(ip.Rate)
			w.EndObject()
		}
		w.EndArray()
	}
	w.EndObject()
}

// Evaluator answers Queries at some fidelity. Implementations must be
// safe for concurrent use and deterministic: equal queries (by
// Fingerprint) get bitwise-equal Outcomes.
type Evaluator interface {
	// Meta describes the evaluator.
	Meta() Meta
	// Supports reports whether the evaluator can faithfully answer the
	// query; a non-nil error names the first unrepresentable aspect.
	Supports(q Query) error
	// Evaluate answers the query.
	Evaluate(ctx context.Context, q Query) (*Outcome, error)
}

// DefaultTrials is the trial count used when Query.Trials is 0, matching
// the erb harness default.
const DefaultTrials = 2

// trials returns the effective trial count.
func (q Query) trials() int {
	if q.Trials <= 0 {
		return DefaultTrials
	}
	return q.Trials
}

// Validate checks the query is well-formed and representable.
func (q Query) Validate() error {
	if len(q.Chip.IPs) == 0 {
		return fmt.Errorf("eval: query chip %q has no IPs", q.Chip.Name)
	}
	if len(q.Work) != len(q.Chip.IPs) {
		return fmt.Errorf("eval: query has %d work entries for %d chip IPs", len(q.Work), len(q.Chip.IPs))
	}
	active := 0
	for i, w := range q.Work {
		if w.Words < 0 {
			return fmt.Errorf("eval: IP %q: negative word count %d", q.Chip.IPs[i].Name, w.Words)
		}
		if w.Words == 0 {
			continue
		}
		active++
		if w.FlopsPerWord < 1 {
			return fmt.Errorf("eval: IP %q: FlopsPerWord must be at least 1, got %d", q.Chip.IPs[i].Name, w.FlopsPerWord)
		}
	}
	if active == 0 {
		return fmt.Errorf("eval: query assigns no work")
	}
	if q.Trials < 0 {
		return fmt.Errorf("eval: negative trial count %d", q.Trials)
	}
	if q.MaxEvents < 0 {
		return fmt.Errorf("eval: negative MaxEvents %d", q.MaxEvents)
	}
	return nil
}

// TotalWords sums the assigned array words.
func (q Query) TotalWords() int {
	total := 0
	for _, w := range q.Work {
		total += w.Words
	}
	return total
}

// TotalFlops is the query's total work: Σ words·FlopsPerWord·trials.
func (q Query) TotalFlops() float64 {
	total := 0.0
	for _, w := range q.Work {
		total += float64(w.Words) * float64(w.FlopsPerWord) * float64(q.trials())
	}
	return total
}

// realize converts the query into the simulation substrate's terms: one
// kernel assignment per active IP, in chip declaration order (assignment
// order is semantically meaningful — engine ties break by schedule
// order), plus the run options. The sim backend runs this realization;
// the fingerprint hashes the same assignments and options, built by the
// same helpers without the display labels.
func (q Query) realize() ([]sim.Assignment, sim.RunOptions, error) {
	if err := q.Validate(); err != nil {
		return nil, sim.RunOptions{}, err
	}
	as := q.appendAssignments(nil)
	for i := range as {
		as[i].Kernel.Name = "eval/" + as[i].IP
	}
	return as, q.runOptions(), nil
}

// appendAssignments appends one assignment per active IP, in chip
// declaration order, to dst. Kernel.Name stays empty: it is a display
// label that no fingerprint reads, and realize adds it for the runs.
func (q Query) appendAssignments(dst []sim.Assignment) []sim.Assignment {
	for i, w := range q.Work {
		if w.Words == 0 {
			continue
		}
		dst = append(dst, sim.Assignment{
			IP: q.Chip.IPs[i].Name,
			Kernel: kernel.Kernel{
				WorkingSet:   units.Bytes(w.Words * kernel.WordSize),
				Trials:       q.trials(),
				FlopsPerWord: w.FlopsPerWord,
				Pattern:      w.Pattern,
			},
		})
	}
	return dst
}

// runOptions is the query's sim run options.
func (q Query) runOptions() sim.RunOptions {
	return sim.RunOptions{
		Coordination: q.Coordination,
		Thermal:      q.Thermal,
		MaxEvents:    q.MaxEvents,
	}
}

// Share names one IP's fraction of a split workload.
type Share struct {
	// IP names the chip IP.
	IP string
	// Fraction is the IP's share of the total words, in [0,1].
	Fraction float64
}

// SplitWork apportions totalWords across the named IPs by fraction, the
// way the §IV-C harnesses do: every share but the last gets
// int(fraction·totalWords) and the last absorbs the remainder, so the
// realized split is exactly the historical cpuWords/accWords arithmetic
// and total work is conserved. Unnamed chip IPs stay idle.
func SplitWork(cfg sim.Config, totalWords, flopsPerWord int, p kernel.Pattern, shares []Share) ([]IPWork, error) {
	if totalWords <= 0 {
		return nil, fmt.Errorf("eval: split needs positive totalWords, got %d", totalWords)
	}
	if len(shares) == 0 {
		return nil, fmt.Errorf("eval: split needs at least one share")
	}
	index := make(map[string]int, len(cfg.IPs))
	for i, ip := range cfg.IPs {
		index[ip.Name] = i
	}
	work := make([]IPWork, len(cfg.IPs))
	seen := make(map[string]bool, len(shares))
	assigned := 0
	for si, s := range shares {
		if s.Fraction < 0 || s.Fraction > 1 {
			return nil, fmt.Errorf("eval: share %q fraction %v outside [0,1]", s.IP, s.Fraction)
		}
		if seen[s.IP] {
			return nil, fmt.Errorf("eval: duplicate share for IP %q", s.IP)
		}
		seen[s.IP] = true
		i, ok := index[s.IP]
		if !ok {
			return nil, fmt.Errorf("eval: share names unknown IP %q on chip %q", s.IP, cfg.Name)
		}
		words := int(float64(totalWords) * s.Fraction)
		if si == len(shares)-1 {
			words = totalWords - assigned
		}
		if words < 0 {
			return nil, fmt.Errorf("eval: shares of %q over-assign %d words", cfg.Name, -words)
		}
		assigned += words
		work[i] = IPWork{Words: words, FlopsPerWord: flopsPerWord, Pattern: p}
	}
	return work, nil
}
