package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/experiments"
	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim"
	"github.com/gables-model/gables/internal/sim/trace"
	"github.com/gables-model/gables/internal/simcache"
	"github.com/gables-model/gables/internal/surrogate"
	"github.com/gables-model/gables/internal/units"
)

// The traced pass. Every run, whatever its workload, reports every
// per-layer metric: it measures the workload's own closed loop with and
// without spans (the tracing overhead), then probes each layer by timing
// calls into its public functions on the workloads' inputs. README.md
// names the end-to-end metric and workload each per-layer metric should
// move, and which counts repeat exactly.

// timedExperiments are the experiments that dominate a cold sequential
// registry run.
var timedExperiments = []string{"latency", "fig8", "derive", "validate", "sd821", "simd", "allocation", "hvx", "cache", "thermal"}

const (
	probePasses    = 3  // passes over each probe's inputs
	freshQueries   = 30 // in-envelope questions no workload asks
	engineQueries  = 6  // of those, the ones the sim engine is timed on
	reproRuns      = 3  // verified gables-repro -j 1 -v runs
	execRuns       = 10 // gables-repro -list invocations
	registryProbes = 3  // child processes running the experiment registry
)

func runTraced(ctx context.Context, w workload, name string, seed int64, reproBin, outDir string, d time.Duration) (*result, error) {
	if _, err := w.setup(ctx); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	tr := newTracer()
	res := &result{Metrics: map[string]metric{}}

	// Tracing overhead: alternate untraced and traced rounds of the
	// workload's own loop over half the run.
	var plain, traced []float64
	for r := 0; r < rounds; r++ {
		var t *tracer
		if r%2 == 1 {
			t = tr
		}
		st := measure(ctx, w, d/2/rounds, 1, t, "workload."+name)
		res.Attempted += st.attempted
		res.Failed += st.failed
		if st.firstErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: failure:", st.firstErr)
		}
		if t != nil {
			traced = append(traced, st.rates...)
		} else {
			plain = append(plain, st.rates...)
		}
	}
	res.Correct = res.Failed == 0
	p := &probe{tr: tr, seed: seed, reproBin: reproBin, m: res.Metrics}
	p.set("trace.overhead_items_per_s", "1/s", median(traced)-median(plain))
	if err := p.run(ctx, w); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(outDir, "trace-"+name+".json")); err != nil {
		return nil, err
	}
	return res, nil
}

// probe measures the layers, recording spans in tr and metrics in m.
type probe struct {
	tr       *tracer
	seed     int64
	reproBin string
	m        map[string]metric
}

func (p *probe) set(name, unit string, v float64) { p.m[name] = metric{v, unit} }

// setMicros reports the median of durations (seconds) in microseconds.
func (p *probe) setMicros(name string, secs []float64) { p.set(name, "us", median(secs)*1e6) }

func (p *probe) run(ctx context.Context, w workload) error {
	sp, ok := w.(*servePoint)
	if !ok {
		sp = newServePoint(p.seed, true)
		if _, err := sp.setup(ctx); err != nil {
			return err
		}
	}
	if err := p.point(ctx, sp); err != nil {
		return err
	}
	if err := p.fresh(ctx); err != nil {
		return err
	}
	sb, ok := w.(*serveBatch)
	if !ok {
		sb = newServeBatch(p.seed, false)
		if _, err := sb.setup(ctx); err != nil {
			return err
		}
	}
	if err := p.batch(ctx, sb); err != nil {
		return err
	}
	return p.repro(ctx)
}

// countAllocs returns the heap allocations fn makes on its second call,
// with the collector paused, so that one-time lazy set-up is excluded,
// pooled buffers survive and the count repeats.
func countAllocs(fn func() error) (uint64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if err := fn(); err != nil {
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, err
}

// lookups is the number of cache lookups a stats delta records.
func lookups(before, after simcache.Stats) (hits, all int64) {
	hits = after.Hits - before.Hits
	all = hits + after.Misses - before.Misses + after.Coalesced - before.Coalesced +
		after.DiskHits - before.DiskHits + after.PeerHits - before.PeerHits
	return hits, all
}

// point probes web, eval and surrogate on the serve-point questions.
func (p *probe) point(ctx context.Context, sp *servePoint) error {
	// Exact counts over a pass in query order.
	evBefore, sgBefore := eval.CacheStats(), surrogate.DefaultStats()
	allocs, err := countAllocs(func() error {
		for _, r := range sp.reqs {
			if _, err := sp.get(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	evAfter, sgAfter := eval.CacheStats(), surrogate.DefaultStats()
	hits, all := lookups(evBefore, evAfter)
	p.set("eval.outcome_hit_ratio", "ratio", float64(hits)/float64(max(all, 1)))
	fast := sgAfter.FastAnswers - sgBefore.FastAnswers
	routed := fast + sgAfter.Fallbacks - sgBefore.Fallbacks
	p.set("surrogate.fast_share", "ratio", float64(fast)/float64(max(routed, 1)))
	p.set("web.point_allocs", "count", float64(allocs)/float64(len(sp.reqs)))
	p.set("surrogate.calibrate_ms", "ms", median(sp.calibrateMs))

	// Spans: each request, then its backend's Evaluate on the same query
	// as the child, then the query fingerprint on its own.
	evs := map[string]eval.Evaluator{}
	for _, name := range pointModels {
		if evs[name], err = eval.Resolve(name); err != nil {
			return err
		}
	}
	qs := make([]eval.Query, len(sp.queries))
	for i, q := range sp.queries {
		if qs[i], err = q.query(); err != nil {
			return err
		}
	}
	var self []float64
	for pass := 0; pass < probePasses; pass++ {
		for i, q := range sp.queries {
			req := p.tr.newRequest()
			var err error
			id := p.tr.timed("web.point", 0, req, func() { _, err = sp.get(sp.reqs[i]) })
			if err != nil {
				return err
			}
			p.tr.timed("eval."+q.Backend, id, req, func() { _, err = evs[q.Backend].Evaluate(ctx, qs[i]) })
			if err != nil {
				return err
			}
			self = append(self, p.tr.self(id).Seconds())
			p.tr.timed("eval.fingerprint", 0, req, func() { _, err = eval.Fingerprint(qs[i]) })
			if err != nil {
				return err
			}
		}
	}
	p.setMicros("web.point_us", p.tr.durations("web.point"))
	p.setMicros("web.point_self_us", self)
	p.setMicros("eval.analytic_hit_us", p.tr.durations("eval.analytic"))
	p.setMicros("eval.auto_us", p.tr.durations("eval.auto"))
	p.setMicros("eval.fingerprint_us", p.tr.durations("eval.fingerprint"))
	return nil
}

// assignments realizes a query as sim kernel assignments, the way the sim
// backend does (kernel names are not part of the cache key).
func assignments(q eval.Query) []sim.Assignment {
	var as []sim.Assignment
	for i, w := range q.Work {
		if w.Words == 0 {
			continue
		}
		name := q.Chip.IPs[i].Name
		as = append(as, sim.Assignment{IP: name, Kernel: kernel.Kernel{
			Name: "eval/" + name, WorkingSet: units.Bytes(w.Words * kernel.WordSize),
			Trials: q.Trials, FlopsPerWord: w.FlopsPerWord, Pattern: w.Pattern,
		}})
	}
	return as
}

// fresh compares the surrogate fast path, a cold sim answer and a cached
// one on the same in-envelope questions, and times the simcache and the
// sim engine below them. The questions use word counts no workload asks,
// so each first sim answer is a simcache miss.
func (p *probe) fresh(ctx context.Context) error {
	fractions := []float64{0.3, 0.4, 0.5}
	var qs []eval.Query
	for k := 0; k < freshQueries; k++ {
		cfg := chipConfig(chipNames[k%len(chipNames)])
		q, err := splitQuery(cfg, fractions[k/len(chipNames)%len(fractions)], pointFPWs[1+k%2], 4<<20+1024*(k+1))
		if err != nil {
			return err
		}
		qs = append(qs, q)
	}
	sur, err := eval.Resolve("surrogate")
	if err != nil {
		return err
	}
	simEv, err := eval.Resolve("sim")
	if err != nil {
		return err
	}
	each := func(name string, passes int, fn func(q eval.Query) error) error {
		for pass := 0; pass < passes; pass++ {
			for _, q := range qs {
				var err error
				p.tr.timed(name, 0, p.tr.newRequest(), func() { err = fn(q) })
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
			}
		}
		return nil
	}
	before := surrogate.DefaultStats()
	if err := each("surrogate.fast", probePasses, func(q eval.Query) error { _, err := sur.Evaluate(ctx, q); return err }); err != nil {
		return err
	}
	if fast := surrogate.DefaultStats().FastAnswers - before.FastAnswers; fast != uint64(probePasses*len(qs)) {
		fmt.Fprintf(os.Stderr, "perfbench: only %d of %d surrogate probe answers took the fast path\n", fast, probePasses*len(qs))
	}
	simEval := func(q eval.Query) error { _, err := simEv.Evaluate(ctx, q); return err }
	if err := each("eval.sim_cold", 1, simEval); err != nil {
		return err
	}
	if err := each("eval.sim_hit", probePasses, simEval); err != nil {
		return err
	}
	if err := each("simcache.hit", probePasses, func(q eval.Query) error {
		//lint:ignore evalboundary the benchmark times the simcache layer itself, below the evaluator
		_, err := simcache.Run(q.Chip, assignments(q), sim.RunOptions{})
		return err
	}); err != nil {
		return err
	}
	p.setMicros("surrogate.fast_us", p.tr.durations("surrogate.fast"))
	p.setMicros("eval.sim_cold_us", p.tr.durations("eval.sim_cold"))
	p.setMicros("eval.sim_hit_us", p.tr.durations("eval.sim_hit"))
	p.setMicros("simcache.hit_us", p.tr.durations("simcache.hit"))

	// The sim engine: events per run from a trace.Metrics probe, then the
	// same runs untraced.
	var nsPerEvent []float64
	for _, q := range qs[:engineQueries] {
		m := trace.NewMetrics("perfbench")
		if err := runSim(q, m); err != nil {
			return err
		}
		for pass := 0; pass < probePasses; pass++ {
			var err error
			id := p.tr.timed("sim.run", 0, p.tr.newRequest(), func() { err = runSim(q, nil) })
			if err != nil {
				return err
			}
			nsPerEvent = append(nsPerEvent, float64(p.tr.get(id).dur().Nanoseconds())/float64(m.Dispatched))
		}
	}
	p.set("sim.ns_per_event", "ns", median(nsPerEvent))
	return nil
}

// runSim runs one query on a fresh system, bypassing every cache.
func runSim(q eval.Query, probe trace.Probe) error {
	sys, err := sim.New(q.Chip)
	if err != nil {
		return err
	}
	//lint:ignore evalboundary the benchmark times the sim engine itself, below the cache and the evaluator
	_, err = sys.Run(assignments(q), sim.RunOptions{Probe: probe})
	return err
}

// batch probes web and eval on the serve-batch bodies.
func (p *probe) batch(ctx context.Context, sb *serveBatch) error {
	an, err := eval.Resolve("analytic")
	if err != nil {
		return err
	}
	sur, err := eval.Resolve("surrogate")
	if err != nil {
		return err
	}
	slabs := make([][]eval.Query, len(sb.items))
	points := make([][]eval.Query, len(sb.items))
	for i, items := range sb.items {
		for _, it := range items {
			q, err := it.query()
			if err != nil {
				return err
			}
			if it.Backend == "analytic" {
				slabs[i] = append(slabs[i], q)
			} else {
				points[i] = append(points[i], q)
			}
		}
	}

	// Allocations per item over a pass of the buffered bodies (building
	// each request adds a few per request, not per item).
	items := 0
	allocs, err := countAllocs(func() error {
		items = 0
		for i, body := range sb.bodies {
			if streamed(i) {
				continue
			}
			if _, err := sb.post(body, false); err != nil {
				return err
			}
			items += len(sb.items[i])
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("web.batch_allocs_per_item", "count", float64(allocs)/float64(items))

	// Spans: each request, then (buffered only) its analytic slab through
	// eval.EvaluateBatch and its surrogate items through Evaluate as the
	// children.
	var perItem, selfPerItem, streamPerItem []float64
	for pass := 0; pass < probePasses; pass++ {
		for i, body := range sb.bodies {
			n := float64(len(sb.items[i]))
			req := p.tr.newRequest()
			name := "web.batch"
			if streamed(i) {
				name = "web.stream"
			}
			var resp []byte
			id := p.tr.timed(name, 0, req, func() { resp, err = sb.post(body, streamed(i)) })
			if err != nil {
				return err
			}
			if !bytes.Equal(resp, sb.expected[i]) {
				return fmt.Errorf("batch body %d: response differs from the warm pass", i)
			}
			if streamed(i) {
				streamPerItem = append(streamPerItem, p.tr.get(id).dur().Seconds()/n)
				continue
			}
			out := make([]eval.Outcome, len(slabs[i]))
			p.tr.timed("eval.batch_slab", id, req, func() { err = eval.EvaluateBatch(ctx, an, slabs[i], out) })
			if err != nil {
				return err
			}
			p.tr.timed("surrogate.items", id, req, func() {
				for _, q := range points[i] {
					if _, err = sur.Evaluate(ctx, q); err != nil {
						return
					}
				}
			})
			if err != nil {
				return err
			}
			perItem = append(perItem, p.tr.get(id).dur().Seconds()/n)
			selfPerItem = append(selfPerItem, p.tr.self(id).Seconds()/n)
		}
	}
	p.setMicros("web.batch_us_per_item", perItem)
	p.setMicros("web.batch_self_us_per_item", selfPerItem)
	p.setMicros("web.stream_us_per_item", streamPerItem)

	// The slab fast path against the point loop on the same slabs. The
	// slabs hold more distinct questions than the outcome cache, and no
	// workload asks them point-wise, so the point loop misses like a
	// fan-out of never-repeating items would.
	var batchNs, pointNs []float64
	for _, slab := range slabs {
		req := p.tr.newRequest()
		out := make([]eval.Outcome, len(slab))
		b := p.tr.timed("eval.batch", 0, req, func() { err = eval.EvaluateBatch(ctx, an, slab, out) })
		if err != nil {
			return err
		}
		pt := p.tr.timed("eval.point", 0, req, func() {
			for _, q := range slab {
				if _, err = an.Evaluate(ctx, q); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		n := float64(len(slab))
		batchNs = append(batchNs, float64(p.tr.get(b).dur().Nanoseconds())/n)
		pointNs = append(pointNs, float64(p.tr.get(pt).dur().Nanoseconds())/n)
	}
	p.set("eval.batch_ns_per_item", "ns", median(batchNs))
	p.set("eval.point_ns_per_item", "ns", median(pointNs))
	return nil
}

// repro probes the layers only gables-repro reaches: the simcache counts
// of a verified run, process start-up, the experiments and the sim event
// count.
func (p *probe) repro(ctx context.Context) error {
	var hits, misses, coalesced []float64
	for i := 0; i < reproRuns; i++ {
		var c cacheCounts
		var err error
		p.tr.timed("repro.run", 0, p.tr.newRequest(), func() { c, err = runRepro(ctx, p.reproBin) })
		if err != nil {
			return err
		}
		hits = append(hits, float64(c.hits))
		misses = append(misses, float64(c.misses))
		coalesced = append(coalesced, float64(c.coalesced))
	}
	p.set("simcache.hits_per_run", "count", median(hits))
	p.set("simcache.misses_per_run", "count", median(misses))
	p.set("simcache.coalesced_per_run", "count", median(coalesced))

	for i := 0; i < execRuns; i++ {
		var err error
		p.tr.timed("repro.exec", 0, p.tr.newRequest(), func() {
			err = exec.CommandContext(ctx, p.reproBin, "-list").Run()
		})
		if err != nil {
			return fmt.Errorf("gables-repro -list: %w", err)
		}
	}
	p.set("repro.exec_ms", "ms", median(p.tr.durations("repro.exec"))*1e3)

	var events float64
	for i := 0; i < registryProbes; i++ {
		req := p.tr.newRequest()
		var out []byte
		var err error
		id := p.tr.timed("repro.registry", 0, req, func() { out, err = runSelf("-child", "registry") })
		if err != nil {
			return err
		}
		var r registryReport
		if err := json.Unmarshal(out, &r); err != nil {
			return fmt.Errorf("registry probe: %w", err)
		}
		p.tr.adopt(id, req, r.Spans)
		events = float64(r.Events)
	}
	for _, id := range timedExperiments {
		p.set("experiments."+id+"_ms", "ms", median(p.tr.durations("experiments."+id))*1e3)
	}
	p.set("sim.events_per_run", "count", events)
	return nil
}

// registryReport is what a registry child prints.
type registryReport struct {
	Spans  []span `json:"spans"`
	Events uint64 `json:"events"`
}

// runRegistry runs every experiment in registry order, one at a time,
// like gables-repro -j 1, in this fresh process, timing each; then runs
// them again with a trace.Metrics probe on every simulation to count the
// events a run dispatches (traced runs bypass the cache, so this counts
// the runs the cache would have deduplicated too).
func runRegistry() (*registryReport, error) {
	tr := newTracer()
	for _, id := range experiments.IDs() {
		var art *experiments.Artifact
		var err error
		tr.timed("experiments."+id, 0, tr.newRequest(), func() { art, err = experiments.Run(id) })
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", id, err)
		}
		if !art.Passed() {
			return nil, fmt.Errorf("experiment %s: checks failed", id)
		}
	}
	var mu sync.Mutex
	var probes []*trace.Metrics
	simcache.SetProbeFactory(func(label string) trace.Probe {
		m := trace.NewMetrics(label)
		mu.Lock()
		probes = append(probes, m)
		mu.Unlock()
		return m
	})
	defer simcache.SetProbeFactory(nil)
	for _, id := range experiments.IDs() {
		if _, err := experiments.Run(id); err != nil {
			return nil, fmt.Errorf("traced experiment %s: %w", id, err)
		}
	}
	r := &registryReport{Spans: tr.spans}
	for _, m := range probes {
		r.Events += m.Dispatched
	}
	return r, nil
}

// runChild runs one child probe and prints its JSON report.
func runChild(ctx context.Context, mode string, seed int64) error {
	var report any
	switch mode {
	case "setup-serve-point", "setup-serve-batch":
		var b *serveBase
		var prepare func(context.Context) error
		if mode == "setup-serve-point" {
			w := newServePoint(seed, false)
			b, prepare = &w.serveBase, w.prepare
		} else {
			w := newServeBatch(seed, false)
			b, prepare = &w.serveBase, w.prepare
		}
		t0 := time.Now()
		if err := prepare(ctx); err != nil {
			return err
		}
		report = map[string]float64{"setup_s": time.Since(t0).Seconds(), "calibrate_ms": b.ownCalibrateMs}
	case "registry":
		r, err := runRegistry()
		if err != nil {
			return err
		}
		report = r
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	out, err := json.Marshal(report)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
