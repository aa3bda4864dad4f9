package eval

import (
	"github.com/gables-model/gables/internal/core"
	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim"
)

// Preset is one chip compiled once for serving: its config, the SHA-256
// midstate of the config half of its fingerprint, and the analytic plan
// derived from it for ReadWrite work, the one pattern the serving layer
// builds. It is immutable after NewPreset, so one Preset serves any
// number of concurrent queries; nothing is ever added to it, so it is a
// table, not a cache.
//
// A query made by Query carries an unexported link to its preset, which
// never changes an answer, only how it is computed. Fingerprint resumes
// from the midstate, and Analytic answers from the plan, only while the
// query's chip is still ConfigEqual to the private copy the midstate
// keeps (sim.FingerprintPrefix.Matches). A query whose Chip was swapped
// or written to after Query gets the full hash and a fresh derivation.
type Preset struct {
	cfg    sim.Config
	prefix *sim.FingerprintPrefix
	// plan and names are the compiled analytic derivation for all-ReadWrite
	// work: nil when the chip's model does not validate, in which case every
	// query derives and reports the error itself.
	plan  *core.BatchEval
	names []string
}

// NewPreset compiles cfg. A later write through cfg's backing is safe
// but forfeits the compiled state: queries then hash in full and derive.
func NewPreset(cfg sim.Config) *Preset {
	p := &Preset{cfg: cfg, prefix: sim.NewFingerprintPrefix(cfg)}
	if len(cfg.IPs) == 0 {
		return p
	}
	q := Query{Chip: cfg, Work: make([]IPWork, len(cfg.IPs))}
	for i := range q.Work {
		q.Work[i].Pattern = kernel.ReadWrite
	}
	if be, names, err := analyticPlan(&q); err == nil {
		p.plan, p.names = be, names
	}
	return p
}

// Query returns an empty query on the preset's chip, linked to the
// preset; the caller fills in the work and the execution semantics.
func (p *Preset) Query() Query { return Query{Chip: p.cfg, preset: p} }

// analyticPlan returns the batch evaluator and the chip IP names (in
// model order) of q's analytic derivation: the compiled plan of q's
// preset while q's chip passes the midstate's guard and all of q's work
// is ReadWrite, and a fresh derivation otherwise.
func analyticPlan(q *Query) (*core.BatchEval, []string, error) {
	if p := q.preset; p != nil && p.plan != nil && p.prefix.Matches(q.Chip) && allReadWrite(q.Work) {
		return p.plan, p.names, nil
	}
	model, names := derive(q)
	be, err := model.Batch()
	return be, names, err
}

// allReadWrite reports whether every IP's work uses the ReadWrite pattern.
func allReadWrite(work []IPWork) bool {
	for _, w := range work {
		if w.Pattern != kernel.ReadWrite {
			return false
		}
	}
	return true
}
