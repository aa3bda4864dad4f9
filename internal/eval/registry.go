package eval

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"github.com/gables-model/gables/internal/kernel"
)

// The backend registry: the web server and harnesses select evaluators by
// name (analytic|sim|auto, plus surrogate once internal/surrogate is
// linked in). Construction is lazy so importing eval costs nothing until a
// backend is used.

var (
	registryMu sync.Mutex
	registry   = map[string]func() (Evaluator, error){}
	instances  = map[string]Evaluator{}
)

// Register adds a named backend constructor. Later registrations of the
// same name win (tests use this to stub backends).
func Register(name string, make func() (Evaluator, error)) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[name] = make
	delete(instances, name)
}

// Resolve returns the named backend, constructing it on first use.
func Resolve(name string) (Evaluator, error) {
	registryMu.Lock()
	defer registryMu.Unlock()
	return resolveLocked(name)
}

func resolveLocked(name string) (Evaluator, error) {
	if ev, ok := instances[name]; ok {
		return ev, nil
	}
	make, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("eval: unknown backend %q (have %v)", name, namesLocked())
	}
	ev, err := make()
	if err != nil {
		return nil, err
	}
	instances[name] = ev
	return ev, nil
}

// Names lists the registered backends, sorted.
func Names() []string {
	registryMu.Lock()
	defer registryMu.Unlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register("analytic", func() (Evaluator, error) { return NewAnalytic(), nil })
	Register("sim", func() (Evaluator, error) { return NewSim(), nil })
	Register("auto", func() (Evaluator, error) { return NewAuto(NewAnalytic(), NewSim(), DefaultEnvelope()), nil })
}

// Envelope is the calibrated region of query space where the analytic
// backend is trusted to stand in for measurement. Its constants come from
// the differential oracle's corpus (differential.go): inside the
// envelope, the corpus holds the backends to the documented agreement
// bands; outside it, known model blind spots (coordination overhead,
// thermal throttling, cache-resident working sets) make the closed form
// unreliable and Auto routes to measurement.
type Envelope struct {
	// MinWorkingSetFactor requires each active IP's working set to be
	// at least this multiple of its private cache (an analytic DRAM
	// roofline cannot see cache-resident speedups).
	MinWorkingSetFactor float64
}

// DefaultEnvelope is the oracle-calibrated envelope.
func DefaultEnvelope() Envelope {
	return Envelope{MinWorkingSetFactor: 2}
}

// Check reports nil when the query lies inside the envelope; otherwise an
// error naming the first reason measurement is required.
func (e Envelope) Check(q Query) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if q.Coordination {
		return fmt.Errorf("eval: coordination overhead is outside the analytic envelope")
	}
	if q.Thermal {
		return fmt.Errorf("eval: thermal throttling is outside the analytic envelope")
	}
	for i, w := range q.Work {
		if w.Words == 0 {
			continue
		}
		spec := q.Chip.IPs[i]
		ws := float64(w.Words * kernel.WordSize)
		if spec.CacheSize > 0 && ws < e.MinWorkingSetFactor*spec.CacheSize {
			return fmt.Errorf("eval: IP %q working set %.0f B is under %.0f× its %.0f B cache — cache effects outside the analytic envelope",
				spec.Name, ws, e.MinWorkingSetFactor, spec.CacheSize)
		}
	}
	return nil
}

// Auto routes each query to the cheapest trustworthy backend: the fast
// evaluator inside the envelope, the fallback otherwise. The produced
// Outcome's Backend field records which one answered. The registry's
// "auto" instance pairs analytic with sim under the default envelope.
type Auto struct {
	fast     Evaluator
	fallback Evaluator
	env      Envelope
}

// NewAuto builds the analytic-over-sim router.
func NewAuto(analytic, sim Evaluator, env Envelope) *Auto {
	return &Auto{fast: analytic, fallback: sim, env: env}
}

// Meta implements Evaluator. The fidelity is the fallback's: that is the
// semantics the router guarantees everywhere, the fast path merely matches
// it inside the envelope.
func (a *Auto) Meta() Meta {
	return Meta{
		Name:        "auto",
		Fidelity:    FidelitySimulation,
		Description: "analytic inside the calibrated envelope, sim outside",
	}
}

// Supports implements Evaluator: the router answers whatever its fallback
// backend can.
func (a *Auto) Supports(q Query) error { return a.fallback.Supports(q) }

// Pick returns the backend the router would use for the query.
func (a *Auto) Pick(q Query) Evaluator {
	if a.env.Check(q) == nil && a.fast.Supports(q) == nil {
		return a.fast
	}
	return a.fallback
}

// Evaluate implements Evaluator.
func (a *Auto) Evaluate(ctx context.Context, q Query) (*Outcome, error) {
	return a.Pick(q).Evaluate(ctx, q)
}
