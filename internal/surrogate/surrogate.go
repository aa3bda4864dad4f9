// Package surrogate is the sim-calibrated surrogate backend: a calibration
// pass runs ERB-style sweeps through the sim backend (every cell memoized
// by simcache, so re-calibration on a warm cache is cheap), least-squares
// fits effective Gables parameters — Ppeak, Bpeak, per-IP Bi — over the
// sweep grid, and derives a residual-based efficiency table keyed by
// kernel shape (operational-intensity bucket × work-split bucket).
// Subsequent queries are answered from the fitted core.Model in closed
// form, microseconds instead of the simulator's ~10 ms, each answer
// carrying a confidence envelope derived from the calibration residuals.
//
// The envelope is honest: Calibration.Check reports exactly the
// calibrated region (chip identity by sim.ConfigEqual, calibrated IPs and
// pattern, intensity within the sweep range, DRAM-resident working sets,
// no coordination/thermal/serialized semantics, bucket residual under the
// tolerance), and queries outside it route to the sim backend,
// byte-identical to asking sim directly. A calibration lives only in the
// memory of the backend that fitted it: a fit costs milliseconds per chip,
// and its sweeps share simulation results across processes through
// simcache's disk layer (GABLES_CACHE_DIR).
package surrogate

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/sim"
)

// Options configures a Backend.
type Options struct {
	// Plan is the calibration sweep plan; zero-value fields are defaulted
	// per chip (see Plan).
	Plan Plan
	// Tolerance is the envelope's residual bound; 0 means
	// DefaultTolerance.
	Tolerance float64
}

// Backend is the surrogate evaluator. It calibrates lazily per chip on
// the first query that chip sees, then routes every query to the fitted
// fast path inside the calibrated envelope and to the sim backend outside
// it. Safe for concurrent use.
type Backend struct {
	opts Options
	sim  eval.Evaluator

	mu    sync.Mutex
	chips []*chipEntry // first-seen order, matched with sim.ConfigEqual

	calibrations atomic.Uint64
	fastAnswers  atomic.Uint64
	fallbacks    atomic.Uint64
}

// chipEntry is one chip's lazily built calibration state.
type chipEntry struct {
	chip sim.Config

	mu  sync.Mutex
	cal *Calibration
}

// New builds a surrogate backend over a fresh sim fallback.
func New(opts Options) *Backend {
	return &Backend{opts: opts, sim: eval.NewSim()}
}

var (
	defaultOnce    sync.Once
	defaultBackend *Backend
)

// Default returns the process-wide surrogate backend (what the registry's
// "surrogate" name resolves to).
func Default() *Backend {
	defaultOnce.Do(func() {
		defaultBackend = New(Options{})
	})
	return defaultBackend
}

func init() {
	eval.Register("surrogate", func() (eval.Evaluator, error) { return Default(), nil })
}

// Meta implements eval.Evaluator. Like the auto router, the surrogate
// guarantees measurement semantics everywhere — the fitted fast path
// merely matches them inside the calibrated envelope.
func (b *Backend) Meta() eval.Meta {
	return eval.Meta{
		Name:        "surrogate",
		Fidelity:    eval.FidelitySimulation,
		Description: "sim-calibrated fitted roofline inside the envelope, sim fallback outside",
	}
}

// Supports implements eval.Evaluator: the backend answers whatever its sim
// fallback can. The honest envelope (Calibration.Check) decides routing,
// not answerability.
func (b *Backend) Supports(q eval.Query) error { return b.sim.Supports(q) }

// Evaluate implements eval.Evaluator: one envelope check routes the query
// to the calibration's fast answer or to the sim fallback.
func (b *Backend) Evaluate(ctx context.Context, q eval.Query) (*eval.Outcome, error) {
	e, err := b.calibrated(ctx, q.Chip)
	if err != nil {
		return nil, err
	}
	if e.cal.Check(q) != nil {
		b.fallbacks.Add(1)
		return b.sim.Evaluate(ctx, q)
	}
	b.fastAnswers.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.cal.Answer(q)
}

// Calibration returns the chip's calibration, fitting it on first use.
func (b *Backend) Calibration(ctx context.Context, cfg sim.Config) (*Calibration, error) {
	e, err := b.calibrated(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return e.cal, nil
}

func (b *Backend) tolerance() float64 {
	if b.opts.Tolerance > 0 {
		return b.opts.Tolerance
	}
	return DefaultTolerance
}

// calibrated returns the chip's entry, building it on first use. Failures
// are not latched: a canceled or failed calibration retries on the next
// query. The lookup matches the chip structurally (sim.ConfigEqual:
// bit-exact on every fingerprinted field, nanoseconds).
func (b *Backend) calibrated(ctx context.Context, cfg sim.Config) (*chipEntry, error) {
	b.mu.Lock()
	var e *chipEntry
	for _, cand := range b.chips {
		if sim.ConfigEqual(cfg, cand.chip) {
			e = cand
			break
		}
	}
	if e == nil {
		e = &chipEntry{chip: cfg}
		b.chips = append(b.chips, e)
	}
	b.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cal != nil {
		return e, nil
	}
	cal, err := Calibrate(ctx, e.chip, b.opts.Plan)
	if err != nil {
		return nil, err
	}
	cal.tolerance = b.tolerance()
	b.calibrations.Add(1)
	e.cal = cal
	return e, nil
}

// Stats is a point-in-time snapshot of the backend's activity, shaped for
// the web /stats endpoint.
type Stats struct {
	// Calibrations counts cold fits performed by this process.
	Calibrations uint64 `json:"calibrations"`
	// FastAnswers counts queries answered by the fitted fast path.
	FastAnswers uint64 `json:"fast_answers"`
	// Fallbacks counts queries routed to the sim backend.
	Fallbacks uint64 `json:"fallbacks"`
	// Models summarizes each calibrated chip's fit.
	Models []ModelSummary `json:"models,omitempty"`
}

// ModelSummary is one calibrated chip's fit parameters and residuals.
type ModelSummary struct {
	Chip         string  `json:"chip"`
	Ppeak        float64 `json:"ppeak"`
	Bpeak        float64 `json:"bpeak"`
	IPs          []IPFit `json:"ips"`
	ResidualMean float64 `json:"residual_mean"`
	ResidualMax  float64 `json:"residual_max"`
	Buckets      int     `json:"buckets"`
}

// Stats snapshots the backend's counters and calibrated models, sorted by
// chip name and, among chips of one name, in the order they were first
// seen, so the output is deterministic.
func (b *Backend) Stats() Stats {
	s := Stats{
		Calibrations: b.calibrations.Load(),
		FastAnswers:  b.fastAnswers.Load(),
		Fallbacks:    b.fallbacks.Load(),
	}
	b.mu.Lock()
	entries := append([]*chipEntry(nil), b.chips...)
	b.mu.Unlock()
	for _, e := range entries {
		e.mu.Lock()
		cal := e.cal
		e.mu.Unlock()
		if cal == nil {
			continue
		}
		s.Models = append(s.Models, ModelSummary{
			Chip:         cal.Chip,
			Ppeak:        cal.IPs[0].Peak,
			Bpeak:        cal.Bpeak,
			IPs:          cal.IPs,
			ResidualMean: cal.ResidualMean,
			ResidualMax:  cal.ResidualMax,
			Buckets:      len(cal.Table),
		})
	}
	sort.SliceStable(s.Models, func(i, j int) bool { return s.Models[i].Chip < s.Models[j].Chip })
	return s
}

// DefaultStats snapshots the default backend (what /stats reports).
func DefaultStats() Stats { return Default().Stats() }
