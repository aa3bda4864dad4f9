package eval

import (
	"context"
	"fmt"

	"github.com/gables-model/gables/internal/core"
)

// The grid fast path: sweeps and planners ask thousands of near-identical
// queries whose loop-invariant work (model derivation, validation
// plumbing, per-outcome allocation) dwarfs the per-cell arithmetic.
// BatchEvaluator lets a backend answer a whole query slab at once;
// EvaluateBatch is the call sites' one entry point, with a point-wise
// fallback so callers never need to know which backends implement the
// fast path. The contract is strict: batch answers must be bitwise
// identical to Evaluate on each query, so migrating a grid onto the batch
// path cannot change any artifact byte. The analytic backend's Evaluate
// is itself a slab of one; TestAnalyticBatchMatchesEvaluateBitwise pins
// its slabs against an outcome built from core.(*Model).Evaluate.

// BatchEvaluator is optionally implemented by Evaluators that can answer
// many queries in one planned pass over shared loop-invariant state.
type BatchEvaluator interface {
	Evaluator
	// EvaluateBatch answers qs[i] into out[i]; len(out) must equal
	// len(qs). Outcomes must be bitwise identical to Evaluate on each
	// query; on error the contents of out are unspecified. The IPs
	// slices of the produced outcomes may share one backing arena —
	// callers own out but must not grow the per-outcome slices.
	EvaluateBatch(ctx context.Context, qs []Query, out []Outcome) error
}

// EvaluateBatch answers qs into the caller-provided result arena out
// (len(out) == len(qs)), using ev's batch fast path when it implements
// BatchEvaluator and falling back to query-at-a-time Evaluate otherwise.
func EvaluateBatch(ctx context.Context, ev Evaluator, qs []Query, out []Outcome) error {
	if len(out) != len(qs) {
		return fmt.Errorf("eval: batch has %d queries but %d result slots", len(qs), len(out))
	}
	if b, ok := ev.(BatchEvaluator); ok {
		return b.EvaluateBatch(ctx, qs, out)
	}
	for i := range qs {
		o, err := ev.Evaluate(ctx, qs[i])
		if err != nil {
			return fmt.Errorf("eval: batch query %d: %w", i, err)
		}
		out[i] = *o
	}
	return nil
}

// EvaluateBatch implements BatchEvaluator: loop-invariant terms (model
// derivation in configured mode, the core batch evaluator's hoisted
// parameters, one IPOutcome arena for the whole slab) are computed once,
// and the per-cell inner loop runs allocation-free under the
// //gables:allocfree regime. Each query must pass Supports; its error
// comes back wrapped with the query's index. Analytic.Evaluate answers a
// point query as a slab of one.
func (a *Analytic) EvaluateBatch(ctx context.Context, qs []Query, out []Outcome) error {
	if len(out) != len(qs) {
		return fmt.Errorf("eval: batch has %d queries but %d result slots", len(qs), len(out))
	}
	if len(qs) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	actives := 0
	for i := range qs {
		if err := a.Supports(qs[i]); err != nil {
			return fmt.Errorf("eval: batch query %d: %w", i, err)
		}
		for _, w := range qs[i].Work {
			if w.Words != 0 {
				actives++
			}
		}
	}
	arena := make([]IPOutcome, actives)

	if a.model != nil {
		return a.batchInjected(qs, out, arena)
	}

	// Configured mode derives the model from the chip. The slab is walked
	// in derivation order (derivationOrder), so each run below is every
	// query of one derivation: a slab over k chips derives k models
	// however its queries are interleaved. Each outcome lands in its
	// query's own slot; correctness never depends on the grouping, since
	// a query that lands in the wrong run just re-derives.
	order := derivationOrder(qs)
	cursor := 0
	lo := 0
	for lo < len(order) {
		hi := lo + 1
		for hi < len(order) && sameDerivation(&qs[order[lo]], &qs[order[hi]]) {
			hi++
		}
		run := order[lo:hi]
		model, names := a.derive(qs[run[0]])
		be, err := model.Batch()
		if err != nil {
			return fmt.Errorf("eval: batch query %d: %w", run[0], err)
		}
		nIP := be.IPs()
		cs := core.NewCells(nIP, len(run))
		res := core.NewCellResults(nIP, len(run))
		fillConfigured(qs, run, cs)
		if bad, ok := evalCells(qs, run, be, cs, res); !ok {
			return fmt.Errorf("eval: batch query %d: invalid derived work vector", bad)
		}
		cursor = emitOutcomes(qs, run, names, cs, res, arena, cursor, out)
		lo = hi
	}
	return nil
}

// maxDerivationGroups bounds the derivations derivationOrder tracks, so
// its scan stays linear in the slab: serving slabs hold one derivation
// per chip preset (three), and sweep grids one or two per chip.
const maxDerivationGroups = 8

// derivationOrder returns the order in which to answer qs: a stable
// permutation of its indices that makes queries sharing a derivation
// (sameDerivation) contiguous, groups in first-appearance order. Only the
// first maxDerivationGroups derivations get groups; queries of any later
// derivation keep their original relative order after all groups, so
// adjacent ones still share a run. A slab of many distinct derivations
// therefore derives no more often than it would in its own order.
func derivationOrder(qs []Query) []int {
	var reps [maxDerivationGroups]int // first query of each group
	var sizes [maxDerivationGroups + 1]int
	groups := 0
	group := make([]uint8, len(qs))
	for i := range qs {
		g := 0
		for g < groups && !sameDerivation(&qs[reps[g]], &qs[i]) {
			g++
		}
		if g == groups && groups < maxDerivationGroups {
			reps[groups] = i
			groups++
		}
		group[i] = uint8(g)
		sizes[g]++
	}
	var next [maxDerivationGroups + 1]int // first free position of each group
	for g := 1; g < len(next); g++ {
		next[g] = next[g-1] + sizes[g-1]
	}
	order := make([]int, len(qs))
	for i, g := range group {
		order[next[g]] = i
		next[g]++
	}
	return order
}

// batchInjected evaluates the slab on the injected calibrated model.
func (a *Analytic) batchInjected(qs []Query, out []Outcome, arena []IPOutcome) error {
	be, err := a.model.Batch()
	if err != nil {
		return err
	}
	nIP := be.IPs()
	cs := core.NewCells(nIP, len(qs))
	res := core.NewCellResults(nIP, len(qs))
	if bad, ok := a.fillInjected(qs, cs); !ok {
		name, _ := unknownModelIP(a.ipNames, qs[bad])
		return fmt.Errorf("eval: batch query %d: analytic model has no IP %q", bad, name)
	}
	all := make([]int, len(qs))
	for i := range all {
		all[i] = i
	}
	if bad, ok := evalCells(qs, all, be, cs, res); !ok {
		return fmt.Errorf("eval: batch query %d: invalid derived work vector", bad)
	}
	emitOutcomes(qs, all, a.ipNames, cs, res, arena, 0, out)
	return nil
}

// unknownModelIP names the first active chip IP of q that the injected
// model does not cover, and reports whether there is one (Supports'
// mirror of fillInjected's scan).
func unknownModelIP(ipNames []string, q Query) (string, bool) {
	for i, w := range q.Work {
		if w.Words == 0 {
			continue
		}
		found := false
		for _, n := range ipNames {
			if n == q.Chip.IPs[i].Name {
				found = true
				break
			}
		}
		if !found {
			return q.Chip.IPs[i].Name, true
		}
	}
	return "", false
}

// sameDerivation reports whether two queries share every input of
// Analytic.derive, using cheap identity checks (shared slice backing,
// equal scalars) rather than deep comparison: false negatives only cost
// a re-derivation.
func sameDerivation(a, b *Query) bool {
	if len(a.Work) != len(b.Work) || len(a.Chip.IPs) != len(b.Chip.IPs) || len(a.Chip.Fabrics) != len(b.Chip.Fabrics) {
		return false
	}
	//lint:ignore floatcmp identity grouping for an optimization, not a numeric comparison: unequal bits just re-derive the model
	if a.Chip.Name != b.Chip.Name || a.Chip.DRAMBandwidth != b.Chip.DRAMBandwidth {
		return false
	}
	if len(a.Chip.IPs) > 0 && &a.Chip.IPs[0] != &b.Chip.IPs[0] {
		return false
	}
	if len(a.Chip.Fabrics) > 0 && &a.Chip.Fabrics[0] != &b.Chip.Fabrics[0] {
		return false
	}
	for i := range a.Work {
		if a.Work[i].Pattern != b.Work[i].Pattern {
			return false
		}
	}
	return true
}

// fillConfigured fills one derivation run's work cells in chip IP order,
// with fi = flops_i/Σflops and Ii = FlopsPerWord/(bytes per word) as
// IPWork documents them; cell c is query run[c].
//
//gables:allocfree
func fillConfigured(qs []Query, run []int, cs *core.Cells) {
	nIP := cs.IPs
	for c, qi := range run {
		total := qs[qi].TotalFlops()
		trials := float64(qs[qi].trials())
		for i := 0; i < nIP; i++ {
			w := qs[qi].Work[i]
			if w.Words == 0 {
				cs.Set(c, i, 0, 0)
				continue
			}
			flops := float64(w.Words) * float64(w.FlopsPerWord) * trials
			cs.Set(c, i, flops/total, float64(w.FlopsPerWord)/patternBytesPerWord(w.Pattern))
		}
	}
}

// fillInjected fills work cells in injected-model IP order, with
// fillConfigured's fraction/intensity arithmetic; it returns the index of
// the first query naming a chip IP outside the model, and false (Supports
// has already rejected such queries).
//
//gables:allocfree
func (a *Analytic) fillInjected(qs []Query, cs *core.Cells) (int, bool) {
	nIP := cs.IPs
	for qi := range qs {
		total := qs[qi].TotalFlops()
		trials := float64(qs[qi].trials())
		for mi := 0; mi < nIP; mi++ {
			cs.Set(qi, mi, 0, 0)
		}
		for i := range qs[qi].Work {
			w := qs[qi].Work[i]
			if w.Words == 0 {
				continue
			}
			mi := -1
			for j := range a.ipNames {
				if a.ipNames[j] == qs[qi].Chip.IPs[i].Name {
					mi = j
					break
				}
			}
			if mi < 0 {
				return qi, false
			}
			flops := float64(w.Words) * float64(w.FlopsPerWord) * trials
			cs.Set(qi, mi, flops/total, float64(w.FlopsPerWord)/patternBytesPerWord(w.Pattern))
		}
	}
	return 0, true
}

// evalCells runs the core kernel over one run of queries (cell c is
// query run[c]), honoring each query's serialized flag; it returns the
// first invalid query index and false.
//
//gables:allocfree
func evalCells(qs []Query, run []int, be *core.BatchEval, cs *core.Cells, res *core.CellResults) (int, bool) {
	for c, qi := range run {
		if !be.EvaluateCell(cs, c, qs[qi].Serialized, res) {
			return qi, false
		}
	}
	return 0, true
}

// emitOutcomes converts one run's cell results into Outcomes, writing
// query run[c]'s answer to out[run[c]] and its per-IP detail into the
// shared arena. It is the analytic backend's one outcome construction,
// point queries included; tests pin it bitwise against an outcome built
// from core.(*Model).Evaluate. Returns the advanced arena cursor.
//
//gables:allocfree
func emitOutcomes(qs []Query, run []int, names []string, cs *core.Cells, res *core.CellResults, arena []IPOutcome, cursor int, out []Outcome) int {
	nIP := res.IPs
	for c, qi := range run {
		total := qs[qi].TotalFlops()
		o := &out[qi]
		o.Backend = "analytic"
		o.Fidelity = FidelityAnalytic
		o.Attainable = res.Attainable[c]
		o.Makespan = 0
		o.TotalFlops = total
		o.Bottleneck = canonicalBottleneck(res.Bottleneck[c])
		o.TieRatio = 0
		o.DRAMUtilization = 0
		if res.Attainable[c] > 0 {
			o.Makespan = total / res.Attainable[c]
		}
		if res.SecondTime[c] > 0 && res.TopTime[c] > 0 {
			o.TieRatio = res.SecondTime[c] / res.TopTime[c]
		}
		start := cursor
		for mi := 0; mi < nIP; mi++ {
			f := cs.Fractions[c*nIP+mi]
			if f == 0 {
				continue
			}
			ip := &arena[cursor]
			cursor++
			ip.IP = names[mi]
			ip.Flops = f * total
			ip.Bytes = res.IPData[c*nIP+mi] * total
			ip.Time = res.IPTime[c*nIP+mi] * total
			ip.Rate = 0
			if ip.Time > 0 {
				ip.Rate = ip.Flops / ip.Time
			}
		}
		o.IPs = arena[start:cursor:cursor]
	}
	return cursor
}
