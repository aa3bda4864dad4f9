package eval

import (
	"context"
	"errors"
	"fmt"

	"github.com/gables-model/gables/internal/core"
	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim"
	"github.com/gables-model/gables/internal/sim/noc"
	"github.com/gables-model/gables/internal/simcache"
	"github.com/gables-model/gables/internal/units"
)

// Analytic answers queries with the closed-form Gables model. Two
// construction modes:
//
//   - NewAnalytic derives a core.SoC from the chip's configured
//     parameters per query: Ppeak and Ai from the IP compute rates, Bi
//     from each link's bandwidth derated for the query's access pattern
//     (writes cost WritePenalty×), Bpeak from the DRAM controller, and
//     one §V-B bus per fabric.
//   - NewAnalyticModel wraps an injected calibrated core.Model (e.g. one
//     assembled by erb.DeriveGables from measured rooflines) whose IPs
//     are matched to chip IPs by name.
//
// Answers are not memoized: the closed form is a handful of divisions and
// a max, cheaper to recompute than to fingerprint and look up.
type Analytic struct {
	model   *core.Model
	ipNames []string // model IP index → chip IP name (injected mode)
}

// NewAnalytic returns the configured-parameter analytic backend.
func NewAnalytic() *Analytic { return &Analytic{} }

// NewAnalyticModel returns an analytic backend that evaluates queries on
// the injected model. ipNames maps each model IP index to the chip IP
// name it represents; queries that put work on chip IPs outside this set
// are unsupported.
func NewAnalyticModel(m *core.Model, ipNames []string) (*Analytic, error) {
	if m == nil || m.SoC == nil {
		return nil, fmt.Errorf("eval: analytic needs a model")
	}
	if len(ipNames) != len(m.SoC.IPs) {
		return nil, fmt.Errorf("eval: model has %d IPs but %d names given", len(m.SoC.IPs), len(ipNames))
	}
	return &Analytic{model: m, ipNames: ipNames}, nil
}

// Meta implements Evaluator.
func (a *Analytic) Meta() Meta {
	return Meta{
		Name:        "analytic",
		Fidelity:    FidelityAnalytic,
		Description: "closed-form Gables roofline model (§III, §V-C)",
	}
}

// Supports implements Evaluator: the closed-form model cannot represent
// host coordination overhead or thermal throttling, and the injected-model
// mode additionally requires every active chip IP to exist in the model.
func (a *Analytic) Supports(q Query) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if q.Coordination {
		return fmt.Errorf("eval: analytic backend cannot represent coordination overhead")
	}
	if q.Thermal {
		return fmt.Errorf("eval: analytic backend cannot represent thermal throttling")
	}
	if a.model != nil {
		if name, ok := unknownModelIP(a.ipNames, q); ok {
			return fmt.Errorf("eval: analytic model has no IP %q", name)
		}
	}
	return nil
}

// patternBytesPerWord is the DRAM bytes one array word moves per trial
// under each kernel pattern — the denominator of the I = FlopsPerWord/bpw
// intensity convention shared with internal/kernel.
func patternBytesPerWord(p kernel.Pattern) float64 {
	if p == kernel.ReadOnly {
		return 4
	}
	return 8 // ReadWrite and StreamCopy: read + write every word
}

// effectiveLink derates a configured link bandwidth for a pattern's write
// share: the substrate charges written bytes WritePenalty× on the link,
// so moving r+w bytes takes (r+p·w)/B seconds.
func effectiveLink(spec sim.IPSpec, p kernel.Pattern) float64 {
	if p == kernel.ReadOnly || spec.WritePenalty <= 1 {
		return spec.LinkBandwidth
	}
	return spec.LinkBandwidth * 2 / (1 + spec.WritePenalty)
}

// derive builds the per-query model from the chip's configured
// parameters, plus the chip IP names in model order. Its inputs are the
// chip's ConfigEqual fields and the work patterns, so a Preset compiles
// it once per chip (analyticPlan).
func derive(q *Query) (*core.Model, []string) {
	ref := q.Chip.IPs[0]
	s := &core.SoC{
		Name:            q.Chip.Name + "-analytic",
		Peak:            units.OpsPerSec(ref.ComputeRate),
		MemoryBandwidth: units.BytesPerSec(q.Chip.DRAMBandwidth),
		IPs:             make([]core.IP, len(q.Chip.IPs)),
	}
	names := make([]string, len(q.Chip.IPs))
	for i, spec := range q.Chip.IPs {
		names[i] = spec.Name
		s.IPs[i] = core.IP{
			Name:         spec.Name,
			Acceleration: spec.ComputeRate / ref.ComputeRate,
			Bandwidth:    units.BytesPerSec(effectiveLink(spec, q.Work[i].Pattern)),
		}
	}
	// One §V-B bus per fabric: an IP uses every fabric on its path to
	// the memory controller. The fabric tree is a handful of entries, so
	// a parent lookup scans it, and every bus's Users is a capacity-capped
	// window of one backing array.
	buses := make([]core.Bus, 0, len(q.Chip.Fabrics))
	users := make([]int, 0, len(q.Chip.Fabrics)*len(q.Chip.IPs))
	for _, f := range q.Chip.Fabrics {
		start := len(users)
		for i, spec := range q.Chip.IPs {
			for fab := spec.Fabric; fab != ""; fab = fabricParent(q.Chip.Fabrics, fab) {
				if fab == f.Name {
					users = append(users, i)
					break
				}
			}
		}
		if len(users) > start {
			buses = append(buses, core.Bus{
				Name:      f.Name,
				Bandwidth: units.BytesPerSec(f.Bandwidth),
				Users:     users[start:len(users):len(users)],
			})
		}
	}
	return &core.Model{SoC: s, Buses: buses}, names
}

// fabricParent returns the parent of the named fabric: "" at the root or
// for a name the chip does not declare, which ends a path walk either way.
// The last declaration of a name wins.
func fabricParent(fabrics []noc.FabricSpec, name string) string {
	for i := len(fabrics) - 1; i >= 0; i-- {
		if fabrics[i].Name == name {
			return fabrics[i].Parent
		}
	}
	return ""
}

// Evaluate implements Evaluator: the query is answered as a slab of one
// through EvaluateBatch, so point and batch answers share one outcome
// construction (emitOutcomes).
func (a *Analytic) Evaluate(ctx context.Context, q Query) (*Outcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := a.Supports(q); err != nil {
		return nil, err
	}
	out := make([]Outcome, 1)
	if err := a.EvaluateBatch(ctx, []Query{q}, out); err != nil {
		// Strip the slab's "batch query 0" wrapping: a point query's
		// error is the underlying one.
		if inner := errors.Unwrap(err); inner != nil {
			return nil, inner
		}
		return nil, err
	}
	return &out[0], nil
}

// canonicalBottleneck translates a core.Component into the cross-backend
// vocabulary.
func canonicalBottleneck(c core.Component) Bottleneck {
	switch c.Kind {
	case "memory":
		return Bottleneck{Kind: "memory", Name: "DRAM"}
	case "bus":
		return Bottleneck{Kind: "bus", Name: c.Name}
	default:
		return Bottleneck{Kind: "IP", Name: c.Name}
	}
}

// CacheStats returns zero counters: analytic answers are not memoized.
// It stays only because the benchmark's per-layer probe calls it; it goes
// away with the next change to the benchmark.
func CacheStats() simcache.Stats { return simcache.Stats{} }
