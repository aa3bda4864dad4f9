package web

import (
	"cmp"
	"context"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/jsonenc"
	"github.com/gables-model/gables/internal/parallel"
)

// POST /eval/batch: the fleet-scale face of the /eval question. A client
// submits an array of SoC+work queries and gets per-item outcomes — or
// per-item errors; a malformed or unanswerable item never fails the
// request (the transport succeeds, the item reports). The request's
// workers claim runs of consecutive items from one counter (batchRun). A
// worker builds its run's queries and answers the run's items whose
// backend names resolve to one eval.BatchEvaluator as one slab, whatever
// the spelling: every item is made by a preset of the server's chip
// table, so the analytic backend answers a run's items for one chip from
// that preset's compiled plan. Then, in item order, it evaluates each
// item no slab answered (sim items run concurrently, deduplicated by the
// simcache singleflight), fingerprints it and encodes it into its own
// pooled writer before it claims again: one pass, on one worker, per
// item. The request's own admission slot covers one worker; each
// additional worker runs only if it wins a free slot (fanout,
// admission.tryAcquire), so MaxInFlight bounds real concurrency whatever
// the batch mix.
//
// A buffered response is written from the workers' bytes, in item order,
// once every item is final. With ?stream=1 or Accept:
// application/x-ndjson the response is NDJSON — one result object per
// line, in item order, each line written as soon as it and every line
// before it are final — so a large batch delivers its early answers while
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
	// own ("" = the server's Options.Backend).
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
	s.bufferBatch(w, r, req)
}

// encodedItem locates one item's bytes in the response — a range of the
// writer of the worker that encoded it — or holds the error that kept
// them from being encoded (a float JSON cannot carry).
type encodedItem struct {
	enc    *jsonenc.Writer
	lo, hi int
	err    error
}

// bytes returns the item's bytes. Until the workers are joined only the
// worker that encoded them may call it, since it reads the writer.
func (it encodedItem) bytes() []byte { return it.enc.Bytes()[it.lo:it.hi] }

// bufferBatch answers the buffered shape: the envelope around every
// item's bytes, in item order, once all of them are final.
func (s *server) bufferBatch(w http.ResponseWriter, r *http.Request, req batchRequest) {
	items := make([]encodedItem, len(req.Items))
	encs := s.answerBatch(r.Context(), req, batchOut{final: func(i int, item encodedItem) { items[i] = item }})
	defer putResponses(encs)
	writeBuffered(w, items)
}

// streamBatch answers the NDJSON shape: evaluation runs concurrently with
// the response writer, which writes each line — in item order — as soon as
// it and every line before it are final, and flushes whenever it would
// otherwise wait, so early answers reach the client while later items are
// still evaluating. The lines are encoded on the workers; the writer only
// sends them. A write failure (client gone) or an unencodable item cancels
// the evaluation context and ends the stream at the last whole line; the
// handler still waits for the evaluation goroutine so the admission slot
// is never released with work in flight.
func (s *server) streamBatch(w http.ResponseWriter, r *http.Request, req batchRequest) {
	n := len(req.Items)
	lines := make([][]byte, n)  // nil: the item could not be encoded
	finals := make(chan int, n) // room for every item: a worker never waits on the writer
	var sent atomic.Int64

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	var encs []*jsonenc.Writer
	done := make(chan struct{})
	go func() {
		defer close(done)
		encs = s.answerBatch(ctx, req, batchOut{stream: true, sent: &sent, final: func(i int, item encodedItem) {
			if item.err == nil {
				lines[i] = item.bytes()
			}
			finals <- i
		}})
	}()

	setContentType(w, ndjsonTypeHeader)
	flusher, _ := w.(http.Flusher)
	ready := make([]bool, n) // the items the workers have reported final
	unflushed := false
	for next := 0; next < n; {
		if !ready[next] {
			if unflushed && flusher != nil && len(finals) == 0 {
				flusher.Flush() // about to wait: what is written goes out now
				unflushed = false
			}
			ready[<-finals] = true
			continue
		}
		if lines[next] == nil {
			cancel() // unencodable item: the stream ends at the last whole line
			break
		}
		if _, err := w.Write(lines[next]); err != nil {
			cancel() // client gone: the line boundary marks the cut
			break
		}
		next++
		sent.Store(int64(next))
		unflushed = true
	}
	<-done
	putResponses(encs)
}

// wantsNDJSON reports whether the client asked for the streaming shape.
func wantsNDJSON(r *http.Request) bool {
	return query(r.URL.RawQuery).Get("stream") == "1" ||
		strings.Contains(r.Header.Get("Accept"), ndjsonContentType)
}

// batchOut tells answerBatch how to lay out each item's bytes and where
// they go.
type batchOut struct {
	// stream selects compact NDJSON lines; otherwise each item is a
	// fragment of the indented buffered envelope, inside its items array
	// and led by its separator (writeBuffered).
	stream bool
	// sent, when set, counts the lines the response has written, in item
	// order: a worker whose every line is sent writes its next one from
	// the start of its buffer, so a stream keeps only the lines encoded
	// ahead of the writer. Unset, every item's bytes stay until the
	// writers go back to the pool.
	sent *atomic.Int64
	// final is called exactly once per item, on the worker that encoded
	// it, with where item i's bytes are. They stay valid until the
	// writers go back to the pool or, with sent, until the line is sent.
	final func(i int, item encodedItem)
}

// appendItem encodes res as item i of the response at the end of enc and
// returns where its bytes are: a compact NDJSON line, or a fragment of
// the indented envelope's items array led by its separator, which
// writeBuffered sends between the envelope's head and tail.
func appendItem(enc *jsonenc.Writer, i int, res *batchItemResult, stream bool) encodedItem {
	lo := len(enc.Bytes())
	if stream {
		res.appendJSON(enc)
		enc.End()
	} else {
		enc.Fragment(itemsDepth, i > 0)
		enc.Element()
		res.appendJSON(enc)
	}
	return encodedItem{enc: enc, lo: lo, hi: len(enc.Bytes()), err: enc.Err()}
}

// batchSlot is one item of a worker's run: its query and how it is
// answered — by its parse or backend-resolution error, by its slab's
// outcome, or point-wise by its evaluator.
type batchSlot struct {
	q   eval.Query
	err error
	out *eval.Outcome
	ev  eval.Evaluator
}

// batchBlock bounds the bytes a batch worker appends to one pooled
// writer: past it the worker takes another, so the pool keeps writers of
// about this size rather than ones as large as the largest share of a
// body a worker ever encoded.
const batchBlock = 16 << 10

// batchRun bounds the items a batch worker claims at once. A request of n
// items on w workers claims runs of min(batchRun, ⌈n/w⌉), so every worker
// it wins gets work; the bound keeps the last runs short, since a cold sim
// item costs milliseconds where a slab item costs microseconds.
const batchRun = 16

// answerBatch answers, fingerprints and encodes every item of req and
// returns the writers holding the bytes; the caller puts them back
// (putResponses) once it has sent what it needs. The workers the request
// wins (fanout) claim runs of consecutive items (batchRun) from one
// counter, and the request's goroutine is the first of them. A worker
// builds its run's queries and answers its slabs (batchWorker.plan), then
// answers, fingerprints and encodes each item in item order before it
// claims again. Every extra slot is released, and every worker joined,
// before answerBatch returns. Items the request's cancellation kept from
// being evaluated report the context error, so exactly one of Outcome
// and Error is set whatever happens.
func (s *server) answerBatch(ctx context.Context, req batchRequest, out batchOut) []*jsonenc.Writer {
	n := len(req.Items)
	workers, release := s.fanout(n)
	defer release()
	run := min(batchRun, (n+workers-1)/workers)
	var claimed atomic.Int64
	held := make([][]*jsonenc.Writer, workers) // each worker's writers
	work := func(c int) {
		w := batchWorker{s: s, slots: make([]batchSlot, run), outs: make([]eval.Outcome, run)}
		var enc *jsonenc.Writer
		last := -1 // the highest item whose bytes enc holds
		for {
			lo := int(claimed.Add(int64(run)) - int64(run))
			if lo >= n {
				return
			}
			items := req.Items[lo:min(lo+run, n)]
			slots := w.plan(ctx, req.Backend, items)
			for k := range items {
				i := lo + k
				res := s.answerItem(ctx, items[k], &slots[k])
				switch {
				case enc != nil && out.sent != nil && out.sent.Load() > int64(last):
					enc.Reset(false) // every line in enc is sent
				case enc == nil || len(enc.Bytes()) >= batchBlock:
					enc = responsePool.Get().(*jsonenc.Writer)
					enc.Reset(!out.stream)
					held[c] = append(held[c], enc)
				}
				last = i
				out.final(i, appendItem(enc, i, &res, out.stream))
			}
		}
	}

	var wg sync.WaitGroup
	for c := 1; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(c)
		}()
	}
	work(0)
	wg.Wait()
	var encs []*jsonenc.Writer
	for _, h := range held {
		encs = append(encs, h...)
	}
	return encs
}

// batchWorker is one batch worker's scratch, reused from run to run: the
// backend names it has resolved, and a run's slots, queries and slab
// outcomes. A run's outcomes are encoded before the worker claims again.
type batchWorker struct {
	s        *server
	backends []batchBackend
	slots    []batchSlot
	qs       []eval.Query
	outs     []eval.Outcome
}

// batchBackend is a backend name a worker has resolved. be is set on the
// first name of each eval.BatchEvaluator only, so a run groups its items
// by the evaluator their name resolves to, not by its spelling.
type batchBackend struct {
	name string
	ev   eval.Evaluator
	err  error
	be   eval.BatchEvaluator
}

// plan builds the queries of one run of items, resolves their backends
// (an item's own, else the request's def) and answers the run's slabs.
func (w *batchWorker) plan(ctx context.Context, def string, items []batchItem) []batchSlot {
	slots := w.slots[:len(items)]
	for k, it := range items {
		q, err := it.spec().buildQuery(w.s.chips)
		if err != nil {
			slots[k] = batchSlot{err: err}
			continue
		}
		b := w.resolve(cmp.Or(it.Backend, def))
		slots[k] = batchSlot{q: q, err: b.err, ev: b.ev}
	}
	outs := w.outs
	for _, b := range w.backends {
		if b.be != nil {
			outs = w.answerSlab(ctx, b.be, slots, outs)
		}
	}
	return slots
}

// resolve returns the worker's entry for a backend name, resolving it on
// first use.
func (w *batchWorker) resolve(name string) batchBackend {
	for _, b := range w.backends {
		if b.name == name {
			return b
		}
	}
	b := batchBackend{name: name}
	b.ev, b.err = w.s.resolveBackend(name)
	if be, ok := b.ev.(eval.BatchEvaluator); ok &&
		!slices.ContainsFunc(w.backends, func(o batchBackend) bool { return o.ev == b.ev }) {
		b.be = be
	}
	w.backends = append(w.backends, b)
	return b
}

// answerSlab answers the run's items that resolved to be as one slab,
// when be supports every one of them (the batch contract has no per-item
// error channel), pointing each item at its outcome at the start of outs,
// and returns the outcomes left unused. Otherwise the items stay for the
// point-wise pass — also when the slab fails, since a slab error names
// one query but poisons the whole slab's outcomes, and point-wise each
// item reports its own.
func (w *batchWorker) answerSlab(ctx context.Context, be eval.BatchEvaluator, slots []batchSlot, outs []eval.Outcome) []eval.Outcome {
	w.qs = w.qs[:0]
	for k := range slots {
		if slots[k].err == nil && slots[k].ev == be {
			if be.Supports(slots[k].q) != nil {
				return outs
			}
			w.qs = append(w.qs, slots[k].q)
		}
	}
	n := len(w.qs)
	if n == 0 || be.EvaluateBatch(ctx, w.qs, outs[:n]) != nil {
		return outs
	}
	j := 0
	for k := range slots {
		if slots[k].err == nil && slots[k].ev == be {
			slots[k].out = &outs[j]
			j++
		}
	}
	return outs[n:]
}

// answerItem answers one item: with its error, its slab's outcome, or a
// point-wise evaluation — unless the request's cancellation came first,
// which the item then reports.
func (s *server) answerItem(ctx context.Context, it batchItem, slot *batchSlot) batchItemResult {
	if slot.err != nil {
		return batchItemResult{Chip: it.Chip, Error: slot.err.Error()}
	}
	o := slot.out
	if o == nil {
		err := ctx.Err()
		if err == nil {
			o, err = slot.ev.Evaluate(ctx, slot.q)
		}
		switch {
		case err != nil:
			return batchItemResult{Chip: slot.q.Chip.Name, Error: err.Error()}
		case o == nil:
			return batchItemResult{Chip: slot.q.Chip.Name, Error: "backend returned no outcome"}
		}
	}
	return s.finishItem(slot.q, o)
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
