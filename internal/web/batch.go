package web

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/jsonenc"
	"github.com/gables-model/gables/internal/parallel"
)

// POST /eval/batch: the fleet-scale face of the /eval question. A client
// submits an array of SoC+work queries and gets per-item outcomes — or
// per-item errors; a malformed or unanswerable item never fails the
// request (the transport succeeds, the item reports). Items whose backend
// names resolve to the same evaluator form one group, whatever order they
// arrive in. A group goes through the backend's EvaluateBatch fast path
// when it implements eval.BatchEvaluator: every item is made by a preset
// of the server's chip table, so the analytic backend answers all items
// for one chip from that preset's compiled plan, and the slab's items are
// then fingerprinted in contiguous chunks, one per worker. Other groups take a bounded parallel fan-out (sim items run
// concurrently up to the worker bound, deduplicated by the simcache
// singleflight). A buffered response is encoded in the same contiguous
// chunks. Every fan-out is charged against the admission limiter
// (fanout): the request's own slot covers one worker, and each
// additional worker runs only if it wins a free slot
// (admission.tryAcquire), so MaxInFlight bounds real concurrency whatever
// the batch mix.
//
// With ?stream=1 or Accept: application/x-ndjson the response is NDJSON —
// one result object per line, in item order, written and flushed as
// results complete — so a large batch delivers its early answers while
// later items are still evaluating.

// DefaultBatchLimit bounds the item count of one batch request.
const DefaultBatchLimit = 1024

// maxBatchBody bounds the request body; 8 MiB comfortably holds a
// DefaultBatchLimit-item request with every field spelled out.
const maxBatchBody = 8 << 20

// ndjsonContentType is the streaming response content type.
const ndjsonContentType = "application/x-ndjson"

// batchItem is one query in the request array. Pointer fields distinguish
// "absent" (use the /eval default) from an explicit zero (rejected by
// validation, exactly like the GET surface).
type batchItem struct {
	// Chip names the preset chip ("" = snapdragon835).
	Chip string `json:"chip"`
	// Backend overrides the request-level backend for this item.
	Backend string `json:"backend"`
	// F and DSP are the GPU and DSP work fractions.
	F   *float64 `json:"f"`
	DSP *float64 `json:"dsp"`
	// FPW, Words, Trials are the sizing counts; must be positive.
	FPW    *int `json:"fpw"`
	Words  *int `json:"words"`
	Trials *int `json:"trials"`
	// Serialized selects the §V-C exclusive-work form.
	Serialized bool `json:"serialized"`
}

// spec resolves the item against the shared defaults.
func (it batchItem) spec() evalQuerySpec {
	s := defaultEvalSpec()
	s.Chip = it.Chip
	s.Serialized = it.Serialized
	if it.F != nil {
		s.F = *it.F
	}
	if it.DSP != nil {
		s.DSP = *it.DSP
	}
	if it.FPW != nil {
		s.FPW = *it.FPW
	}
	if it.Words != nil {
		s.Words = *it.Words
	}
	if it.Trials != nil {
		s.Trials = *it.Trials
	}
	return s
}

// batchRequest is the POST body.
type batchRequest struct {
	// Backend selects the evaluator for items that do not name their
	// own ("" = the process default).
	Backend string `json:"backend"`
	// Items are the queries, answered in order.
	Items []batchItem `json:"items"`
}

// batchItemResult is one item's answer: exactly one of Outcome or Error is
// set — including for items the request's cancellation kept from ever
// starting, which report the context error.
type batchItemResult struct {
	Chip        string        `json:"chip,omitempty"`
	Backend     string        `json:"backend,omitempty"`
	Fingerprint string        `json:"fingerprint,omitempty"`
	Outcome     *eval.Outcome `json:"outcome,omitempty"`
	Error       string        `json:"error,omitempty"`
}

// batchResponse is the non-streaming response envelope.
type batchResponse struct {
	Items []batchItemResult `json:"items"`
}

// batchHandler answers POST /eval/batch.
func (s *server) batchHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		evalError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed on /eval/batch (POST a JSON body)", r.Method))
		return
	}
	limit := s.opts.BatchLimit
	if limit <= 0 {
		limit = DefaultBatchLimit
	}
	req, err := decodeBatchBody(http.MaxBytesReader(w, r.Body, maxBatchBody))
	if err != nil {
		evalError(w, http.StatusBadRequest, fmt.Errorf("undecodable batch body: %w", err))
		return
	}
	if len(req.Items) == 0 {
		evalError(w, http.StatusBadRequest, fmt.Errorf("batch has no items"))
		return
	}
	if len(req.Items) > limit {
		evalError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("batch has %d items, limit %d", len(req.Items), limit))
		return
	}

	if wantsNDJSON(r) {
		s.streamBatch(w, r, req)
		return
	}
	results := make([]batchItemResult, len(req.Items))
	s.evaluateBatch(r.Context(), req, results, nil)
	s.writeBatch(w, results)
}

// streamBatch answers the NDJSON shape: evaluation runs concurrently with
// the response writer, which emits each line — in item order — as soon as
// that item's result is final, so early answers reach the client while
// later items are still evaluating. A write failure (client gone) cancels
// the evaluation context; the handler still waits for the evaluation
// goroutine so the admission slot is never released with work in flight.
func (s *server) streamBatch(w http.ResponseWriter, r *http.Request, req batchRequest) {
	n := len(req.Items)
	results := make([]batchItemResult, n)
	ready := make([]chan struct{}, n)
	for i := range ready {
		ready[i] = make(chan struct{})
	}

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.evaluateBatch(ctx, req, results, func(i int) { close(ready[i]) })
	}()

	w.Header().Set("Content-Type", ndjsonContentType)
	flusher, _ := w.(http.Flusher)
	var line jsonenc.Writer // one buffer, reused line after line
	for i := 0; i < n; i++ {
		<-ready[i] // evaluateBatch finalizes every item, canceled or not
		line.Reset(false)
		results[i].appendJSON(&line)
		line.End()
		if line.Err() != nil {
			cancel() // unencodable item: the stream ends at the last whole line
			break
		}
		if _, err := w.Write(line.Bytes()); err != nil {
			cancel() // client gone: the line boundary marks the cut
			break
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	<-done
}

// wantsNDJSON reports whether the client asked for the streaming shape.
func wantsNDJSON(r *http.Request) bool {
	return query(r.URL.RawQuery).Get("stream") == "1" ||
		strings.Contains(r.Header.Get("Accept"), ndjsonContentType)
}

// evaluateBatch answers every item into results, grouping by resolved
// evaluator so batch-capable evaluators see whole slabs. note, when
// non-nil, is called exactly once per item the moment results[i] is final
// (the streaming writer's signal); every item is finalized — and noted —
// before return, with items that never ran (cancellation) reporting the
// context error so the exactly-one-of-Outcome-or-Error contract holds
// unconditionally.
func (s *server) evaluateBatch(ctx context.Context, req batchRequest, results []batchItemResult, note func(i int)) {
	if note == nil {
		note = func(int) {}
	}
	n := len(req.Items)
	queries := make([]eval.Query, n)

	// Parse every item and bucket the parseable ones by the evaluator
	// their backend name resolves to, in first-appearance order
	// (deterministic grouping; results go back to their item index, so
	// grouping never reorders the response). Two spellings of one backend
	// ("" for the default and its name) share a group, so they share a
	// slab. A name that does not resolve gets a group of its own, whose
	// items all report the resolution error.
	type group struct {
		ev   eval.Evaluator
		err  error
		idxs []int
	}
	var groups []*group
	byName := make(map[string]*group)
	byEval := make(map[eval.Evaluator]*group)
	for i, it := range req.Items {
		q, err := it.spec().buildQuery(s.chips)
		if err != nil {
			results[i] = batchItemResult{Chip: it.Chip, Error: err.Error()}
			note(i)
			continue
		}
		queries[i] = q
		name := it.Backend
		if name == "" {
			name = req.Backend
		}
		g := byName[name]
		if g == nil {
			ev, err := resolveBackend(name)
			if err == nil {
				g = byEval[ev]
			}
			if g == nil {
				g = &group{ev: ev, err: err}
				groups = append(groups, g)
				if err == nil {
					byEval[ev] = g
				}
			}
			byName[name] = g
		}
		g.idxs = append(g.idxs, i)
	}

	for _, g := range groups {
		if g.err != nil {
			for _, i := range g.idxs {
				results[i] = batchItemResult{Chip: req.Items[i].Chip, Error: g.err.Error()}
				note(i)
			}
			continue
		}
		s.evaluateGroup(ctx, g.ev, g.idxs, queries, results, note)
	}
}

// evaluateGroup answers one backend's items: slab-wise through the batch
// fast path when every query is supported and the backend implements it,
// point-wise under a bounded fan-out otherwise (including as the fallback
// that attributes a slab failure to its item).
func (s *server) evaluateGroup(ctx context.Context, ev eval.Evaluator, idxs []int, queries []eval.Query, results []batchItemResult, note func(i int)) {
	if be, ok := ev.(eval.BatchEvaluator); ok && allSupported(be, idxs, queries) {
		qs := make([]eval.Query, len(idxs))
		for k, i := range idxs {
			qs[k] = queries[i]
		}
		out := make([]eval.Outcome, len(qs))
		if err := be.EvaluateBatch(ctx, qs, out); err == nil {
			// out is this slab's own, so each result can point into it.
			chunked(s, len(idxs), func(lo, hi int) struct{} {
				for k := lo; k < hi; k++ {
					i := idxs[k]
					results[i] = s.finishItem(queries[i], &out[k])
					note(i)
				}
				return struct{}{}
			})
			return
		}
		// A slab error names one query but poisons the whole slab's
		// outcomes; replay point-wise so each item reports its own.
	}

	// Items are claimed one by one rather than in fixed chunks: a cold sim
	// item costs milliseconds where a cached one costs microseconds.
	workers, release := s.fanout(len(idxs))
	parallel.ForEach(ctx, workers, idxs, func(ctx context.Context, _ int, i int) error {
		o, err := ev.Evaluate(ctx, queries[i])
		switch {
		case err != nil:
			results[i] = batchItemResult{Chip: queries[i].Chip.Name, Error: err.Error()}
		case o == nil:
			results[i] = batchItemResult{Chip: queries[i].Chip.Name, Error: "backend returned no outcome"}
		default:
			results[i] = s.finishItem(queries[i], o)
		}
		note(i)
		return nil // item errors stay with the item
	})
	release()

	// Cancellation can keep items from ever starting; finalize them with
	// the context error rather than leaving zero-value results behind.
	for _, i := range idxs {
		if results[i].Outcome == nil && results[i].Error == "" {
			err := ctx.Err()
			if err == nil {
				err = context.Canceled
			}
			results[i] = batchItemResult{Chip: queries[i].Chip.Name, Error: err.Error()}
			note(i)
		}
	}
}

// fanout wins the workers of one request's fan-out over n units of work.
// The request's admission slot covers one worker; each one beyond it — up
// to parallel.Workers(BatchWorkers) in all — must win a free slot through
// admission.tryAcquire or it doesn't run, so the whole fleet of point
// requests, batches, and batch workers stays under MaxInFlight. With
// nothing free the work runs sequentially on the slot the request holds.
// release frees the extra slots; call it exactly once, after the workers
// finish.
func (s *server) fanout(n int) (workers int, release func()) {
	want := parallel.Workers(s.opts.BatchWorkers)
	if want > n {
		want = n
	}
	var extra []func()
	for len(extra) < want-1 {
		r, ok := s.adm.tryAcquire()
		if !ok {
			break
		}
		extra = append(extra, r)
	}
	return 1 + len(extra), func() {
		for _, r := range extra {
			r()
		}
	}
}

// chunked splits the items [0, n) into one contiguous chunk per worker
// the request wins (fanout) and returns fn's result for each chunk, in
// item order. The calling goroutine, on the request's own slot, runs the
// first chunk; every extra slot is released before chunked returns.
func chunked[T any](s *server, n int, fn func(lo, hi int) T) []T {
	workers, release := s.fanout(n)
	defer release()
	out := make([]T, workers)
	var wg sync.WaitGroup
	for c := 1; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c] = fn(c*n/workers, (c+1)*n/workers)
		}(c)
	}
	out[0] = fn(0, n/workers)
	wg.Wait()
	return out
}

// allSupported reports whether the backend can answer every query in the
// group (the batch contract has no per-item error channel, so one
// unsupported query sends the whole group down the point-wise path).
func allSupported(ev eval.Evaluator, idxs []int, queries []eval.Query) bool {
	for _, i := range idxs {
		if ev.Supports(queries[i]) != nil {
			return false
		}
	}
	return true
}

// finishItem builds one answered item's result, attaching the canonical
// fingerprint. A query without a fingerprint reports the error instead of
// its outcome, as /eval answers it with a 500, so exactly one of Outcome
// and Error is set.
func (s *server) finishItem(q eval.Query, o *eval.Outcome) batchItemResult {
	fp, err := eval.Fingerprint(q)
	if err != nil {
		return batchItemResult{Chip: q.Chip.Name, Error: err.Error()}
	}
	return batchItemResult{Chip: q.Chip.Name, Backend: o.Backend, Fingerprint: fp, Outcome: o}
}
