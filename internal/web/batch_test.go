package web

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/sim"
)

func postBatch(t *testing.T, srv *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestBatchEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	resp, body := postBatch(t, srv, "/eval/batch", `{
		"backend": "analytic",
		"items": [
			{"f": 0.5, "fpw": 512},
			{"f": 0.375, "dsp": 0.125, "fpw": 512, "words": 16777216},
			{"serialized": true}
		]
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out batchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 3 {
		t.Fatalf("got %d items, want 3", len(out.Items))
	}
	for i, it := range out.Items {
		if it.Error != "" || it.Outcome == nil {
			t.Fatalf("item %d: error=%q outcome=%v", i, it.Error, it.Outcome)
		}
		if it.Backend != "analytic" {
			t.Errorf("item %d backend = %q", i, it.Backend)
		}
		if it.Fingerprint == "" {
			t.Errorf("item %d has no fingerprint", i)
		}
		if it.Outcome.Attainable <= 0 {
			t.Errorf("item %d attainable = %v", i, it.Outcome.Attainable)
		}
	}
	if len(out.Items[1].Outcome.IPs) != 3 {
		t.Errorf("three-IP item activated %d IPs", len(out.Items[1].Outcome.IPs))
	}

	// Batch answers must match the point endpoint bitwise: same query,
	// same fingerprint, same attainable.
	point, status := getEval(t, srv, "?backend=analytic&f=0.5&fpw=512")
	if status != http.StatusOK {
		t.Fatalf("point status = %d", status)
	}
	if out.Items[0].Fingerprint != point.Fingerprint {
		t.Error("batch item fingerprints differently than the point query")
	}
	if out.Items[0].Outcome.Attainable != point.Outcome.Attainable {
		t.Errorf("batch attainable %v != point %v", out.Items[0].Outcome.Attainable, point.Outcome.Attainable)
	}
}

// TestBatchPartialFailure pins the per-item error contract: bad items
// report their own errors, good items still answer, and the request as a
// whole succeeds.
func TestBatchPartialFailure(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	resp, body := postBatch(t, srv, "/eval/batch", `{
		"backend": "analytic",
		"items": [
			{"f": 0.5},
			{"f": 2.0},
			{"chip": "nope"},
			{"backend": "nope"},
			{"trials": -1},
			{"words": 0}
		]
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 despite bad items: %s", resp.StatusCode, body)
	}
	var out batchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 6 {
		t.Fatalf("got %d items, want 6", len(out.Items))
	}
	if out.Items[0].Error != "" || out.Items[0].Outcome == nil {
		t.Errorf("good item: error=%q outcome=%v", out.Items[0].Error, out.Items[0].Outcome)
	}
	for i, frag := range map[int]string{
		1: "fraction", 2: "unknown chip", 3: "unknown backend", 4: "trials", 5: "words",
	} {
		it := out.Items[i]
		if it.Outcome != nil {
			t.Errorf("bad item %d produced an outcome", i)
		}
		if !strings.Contains(it.Error, frag) {
			t.Errorf("item %d error %q does not mention %q", i, it.Error, frag)
		}
	}
}

// TestBatchStream pins the NDJSON shape: one result object per line, in
// item order.
func TestBatchStream(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	resp, body := postBatch(t, srv, "/eval/batch?stream=1", `{
		"backend": "analytic",
		"items": [{"f": 0.25}, {"f": 2.0}, {"f": 0.75}]
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ndjsonContentType {
		t.Errorf("Content-Type = %q, want %q", ct, ndjsonContentType)
	}
	var items []batchItemResult
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var it batchItemResult
		if err := json.Unmarshal(sc.Bytes(), &it); err != nil {
			t.Fatalf("line %d: %v", len(items), err)
		}
		items = append(items, it)
	}
	if len(items) != 3 {
		t.Fatalf("got %d lines, want 3", len(items))
	}
	if items[0].Outcome == nil || items[2].Outcome == nil {
		t.Error("good items missing outcomes")
	}
	if items[1].Error == "" {
		t.Error("bad middle item reported no error")
	}
	if items[0].Outcome.Attainable == items[2].Outcome.Attainable {
		t.Error("distinct queries answered identically: order lost?")
	}

	// The Accept header selects the same shape.
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/eval/batch",
		strings.NewReader(`{"backend":"analytic","items":[{"f":0.5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", ndjsonContentType)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != ndjsonContentType {
		t.Errorf("Accept negotiation: Content-Type = %q", ct)
	}
}

// slowItemBackend answers immediately except for trials == block, which
// waits on gate; batch streaming tests use it to hold one item open while
// others complete.
type slowItemBackend struct {
	block int
	gate  chan struct{}
}

func (s *slowItemBackend) Meta() eval.Meta {
	return eval.Meta{Name: "slow-item", Fidelity: eval.FidelityAnalytic, Description: "per-item gated test stub"}
}
func (s *slowItemBackend) Supports(eval.Query) error { return nil }
func (s *slowItemBackend) Evaluate(ctx context.Context, q eval.Query) (*eval.Outcome, error) {
	if q.Trials == s.block {
		select {
		case <-s.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return &eval.Outcome{Backend: "slow-item", Attainable: float64(q.Trials), TotalFlops: 1}, nil
}

// TestBatchStreamIncremental pins the streaming contract the review found
// hollow: with ?stream=1, an early item's line must reach the client
// while a later item is still evaluating — not after the whole batch.
func TestBatchStreamIncremental(t *testing.T) {
	stub := &slowItemBackend{block: 2, gate: make(chan struct{})}
	eval.Register("stub-stream", func() (eval.Evaluator, error) { return stub, nil })
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/eval/batch?stream=1", "application/json",
		strings.NewReader(`{"backend":"stub-stream","items":[{"trials":1},{"trials":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	br := bufio.NewReader(resp.Body)
	lines := make(chan []byte, 2)
	readErr := make(chan error, 2)
	go func() {
		for i := 0; i < 2; i++ {
			line, err := br.ReadBytes('\n')
			if err != nil {
				readErr <- err
				return
			}
			lines <- line
		}
	}()

	// The first line must arrive while item 2 is still gated.
	var first batchItemResult
	select {
	case line := <-lines:
		if err := json.Unmarshal(line, &first); err != nil {
			t.Fatalf("first line: %v", err)
		}
	case err := <-readErr:
		t.Fatalf("read: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("no line delivered while a later item was still evaluating: streaming is not incremental")
	}
	if first.Outcome == nil || first.Outcome.Attainable != 1 {
		t.Fatalf("first line = %+v, want item 0's outcome", first)
	}

	close(stub.gate)
	select {
	case line := <-lines:
		var second batchItemResult
		if err := json.Unmarshal(line, &second); err != nil {
			t.Fatalf("second line: %v", err)
		}
		if second.Outcome == nil || second.Outcome.Attainable != 2 {
			t.Fatalf("second line = %+v, want item 1's outcome", second)
		}
	case err := <-readErr:
		t.Fatalf("read: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("second line never arrived after the gate opened")
	}
}

// TestBatchCanceledItems pins the exactly-one-of-Outcome-or-Error
// contract under cancellation: items the canceled context kept from ever
// starting still report an explicit error (and are finalized exactly
// once), never a zero-value result.
func TestBatchCanceledItems(t *testing.T) {
	stub := &slowItemBackend{block: -1, gate: make(chan struct{})}
	eval.Register("stub-cancel", func() (eval.Evaluator, error) { return stub, nil })
	s := newServer(Options{MaxInFlight: 4, QueueDepth: 4})

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before any item can start
	req := batchRequest{Backend: "stub-cancel", Items: []batchItem{{}, {}, {}}}
	lines := make([][]byte, len(req.Items))
	var mu sync.Mutex
	noted := make(map[int]int)
	encs := s.answerBatch(ctx, req, batchOut{stream: true, final: func(i int, item encodedItem) {
		mu.Lock()
		noted[i]++
		lines[i] = item.bytes()
		mu.Unlock()
	}})
	defer putResponses(encs)

	for i, line := range lines {
		var res batchItemResult
		if err := json.Unmarshal(line, &res); err != nil {
			t.Fatalf("item %d: line %q: %v", i, line, err)
		}
		if res.Outcome != nil {
			t.Errorf("item %d produced an outcome under a canceled context", i)
		}
		if !strings.Contains(res.Error, context.Canceled.Error()) {
			t.Errorf("item %d error = %q, want the context error", i, res.Error)
		}
		if noted[i] != 1 {
			t.Errorf("item %d finalized %d times, want exactly once", i, noted[i])
		}
	}
}

func TestBatchRequestErrors(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{BatchLimit: 2}))
	defer srv.Close()

	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"garbage", `{"items": [`, http.StatusBadRequest},
		{"empty", `{"items": []}`, http.StatusBadRequest},
		{"no-items", `{}`, http.StatusBadRequest},
		{"over-limit", `{"items": [{}, {}, {}]}`, http.StatusRequestEntityTooLarge},
	} {
		resp, body := postBatch(t, srv, "/eval/batch", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d: %s", tc.name, resp.StatusCode, tc.want, body)
		}
	}
}

// slabCounter is a batch-capable stub that records the size and the
// queries of every slab it is handed.
type slabCounter struct {
	mu      sync.Mutex
	slabs   []int
	queries [][]eval.Query
}

func (c *slabCounter) Meta() eval.Meta {
	return eval.Meta{Name: "slab-counter", Fidelity: eval.FidelityAnalytic, Description: "slab-recording test stub"}
}
func (c *slabCounter) Supports(eval.Query) error { return nil }
func (c *slabCounter) Evaluate(context.Context, eval.Query) (*eval.Outcome, error) {
	return &eval.Outcome{Backend: "slab-counter", Attainable: 1, TotalFlops: 1}, nil
}
func (c *slabCounter) EvaluateBatch(_ context.Context, qs []eval.Query, out []eval.Outcome) error {
	c.mu.Lock()
	c.slabs = append(c.slabs, len(qs))
	c.queries = append(c.queries, slices.Clone(qs))
	c.mu.Unlock()
	for i := range out {
		out[i] = eval.Outcome{Backend: "slab-counter", Attainable: 1, TotalFlops: 1}
	}
	return nil
}

// TestBatchGroupsByResolvedBackend pins that /eval/batch groups items by
// the evaluator their backend name resolves to, not by its spelling: the
// request-level default and two names of one backend, interleaved, reach
// it as a single slab when one worker's run holds them all, while an
// unknown name still fails each of its items with the registry's own
// error text. With more workers each run is answered on its own, so each
// slab holds the stub's items of one run, both spellings included.
func TestBatchGroupsByResolvedBackend(t *testing.T) {
	stub := &slabCounter{}
	eval.Register("stub-slab-a", func() (eval.Evaluator, error) { return stub, nil })
	eval.Register("stub-slab-b", func() (eval.Evaluator, error) { return stub, nil })
	_, unknown := eval.Resolve("stub-slab-nope")
	if unknown == nil {
		t.Fatal("unknown backend resolved")
	}
	h := NewHandler(Options{BatchWorkers: 1})

	const body = `{"backend":"stub-slab-a","items":[
		{"f":0.1}, {"backend":"stub-slab-b","f":0.2}, {"backend":"stub-slab-nope"},
		{"backend":"stub-slab-a","chip":"snapdragon821"}, {"f":2}, {"backend":"stub-slab-b"},
		{"backend":"stub-slab-nope","chip":"snapdragon835x"}]}`
	rec := serve(h, http.MethodPost, "/eval/batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var out batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 7 {
		t.Fatalf("got %d items, want 7", len(out.Items))
	}
	for _, i := range []int{0, 1, 3, 5} {
		if it := out.Items[i]; it.Outcome == nil || it.Backend != "slab-counter" {
			t.Errorf("item %d = %+v, want a slab-counter outcome", i, it)
		}
	}
	for _, i := range []int{2, 6} {
		if it := out.Items[i]; it.Outcome != nil || it.Error != unknown.Error() {
			t.Errorf("item %d error = %q, want %q", i, it.Error, unknown.Error())
		}
	}
	if out.Items[6].Chip != "snapdragon835x" {
		t.Errorf("unknown-backend item echoes chip %q", out.Items[6].Chip)
	}
	if it := out.Items[4]; it.Outcome != nil || !strings.Contains(it.Error, "fraction") {
		t.Errorf("unparseable item = %+v", it)
	}
	if len(stub.slabs) != 1 || stub.slabs[0] != 4 {
		t.Errorf("backend saw slabs %v, want one slab of 4", stub.slabs)
	}

	// Items 0, 1, 3 and 5 are the stub's. With every admission slot free,
	// a request wins min(BatchWorkers, 7) workers and claims runs of
	// min(batchRun, ⌈7/workers⌉) items.
	stubItems := map[string]int{}
	for _, i := range []int{0, 1, 3, 5} {
		stubItems[out.Items[i].Fingerprint] = i
	}
	for _, workers := range []int{2, 3, 4} {
		stub.slabs, stub.queries = nil, nil
		rec := serve(NewHandler(Options{BatchWorkers: workers}), http.MethodPost, "/eval/batch", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("BatchWorkers %d: status %d: %s", workers, rec.Code, rec.Body)
		}
		run := min(batchRun, (7+workers-1)/workers)
		total := 0
		slabOfRun := map[int]int{} // run → the slab its stub items went to
		for sl, qs := range stub.queries {
			total += len(qs)
			runs := map[int]bool{}
			for _, q := range qs {
				fp, err := eval.Fingerprint(q)
				i, ok := stubItems[fp]
				if err != nil || !ok {
					t.Errorf("BatchWorkers %d: slab %d holds a query that is not one of the stub's items", workers, sl)
					continue
				}
				runs[i/run] = true
				if prev, ok := slabOfRun[i/run]; ok && prev != sl {
					t.Errorf("BatchWorkers %d: run %d's stub items went to slabs %d and %d", workers, i/run, prev, sl)
				}
				slabOfRun[i/run] = sl
			}
			if len(runs) > 1 {
				t.Errorf("BatchWorkers %d: slab %d holds items of %d runs", workers, sl, len(runs))
			}
		}
		if total != 4 {
			t.Errorf("BatchWorkers %d: backend saw slabs %v, want sizes summing to 4", workers, stub.slabs)
		}
	}
}

// TestFinishItemFingerprintError pins that an answered item whose query
// has no fingerprint reports the fingerprint error instead of its
// outcome: exactly one of Outcome and Error is set, never an outcome
// without a fingerprint.
func TestFinishItemFingerprintError(t *testing.T) {
	q := eval.Query{Chip: sim.Snapdragon835()} // no work entries: fails Validate
	res := newServer(Options{}).finishItem(q, &eval.Outcome{Backend: "stub"})
	want := q.Validate()
	if want == nil {
		t.Fatal("query unexpectedly valid")
	}
	if res.Outcome != nil || res.Fingerprint != "" || res.Backend != "" {
		t.Errorf("result %+v carries an outcome, want only the error", res)
	}
	if res.Error != want.Error() || res.Chip != q.Chip.Name {
		t.Errorf("result chip %q error %q, want %q and %q", res.Chip, res.Error, q.Chip.Name, want)
	}
}

// TestBatchResponseIndependentOfWorkers pins that the fan-out never shows
// in a response: buffered and NDJSON bodies are byte-identical whatever
// the worker count, including at MaxInFlight 1, where no extra slot can
// be won and every item runs inline. Besides serve-batch-shaped bodies it
// serves one of 40 items that mixes slab items, point-wise items
// (surrogate and sim), unparseable items and unknown-backend items, laid
// out so that the run boundaries — at 16 and 32 with one or two workers,
// at 10, 20 and 30 with four — fall inside a stretch of each kind.
func TestBatchResponseIndependentOfWorkers(t *testing.T) {
	bodies := batchBenchBodies(t, 2, batchBenchItems, 7)
	bodies = append(bodies, []byte(`{"backend":"analytic","items":[
		{"f":0.5,"fpw":32}, {"backend":"surrogate","f":0.3,"fpw":128}, {"f":2},
		{"backend":"nope","chip":"snapdragon821"}, {"chip":"snapdragon821","f":0.25},
		{"backend":"sim","chip":"snapdragon835x","f":0.45,"fpw":512}, {"chip":"nope"},

		{"f":0.2,"fpw":8}, {"chip":"snapdragon835x","f":0.6,"fpw":128}, {"chip":"snapdragon821","f":0.7},
		{"f":0.35,"dsp":0.25}, {"chip":"snapdragon821","serialized":true}, {"chip":"snapdragon835x","fpw":512},
		{"backend":"nope"},

		{"backend":"surrogate","f":0.2,"fpw":32}, {"backend":"sim","f":0.45,"fpw":512},
		{"backend":"surrogate","chip":"snapdragon821","f":0.55,"fpw":8}, {"backend":"auto","f":0.4,"fpw":128},
		{"backend":"surrogate","chip":"snapdragon835x","f":0.3},

		{"f":1.5}, {"fpw":0}, {"chip":"nope","backend":"surrogate"}, {"trials":-3},

		{"backend":"surrogate","chip":"snapdragon835x","f":0.45,"fpw":512}, {"backend":"nope"},
		{"serialized":true,"dsp":0.125,"f":0.375}, {"trials":-1,"backend":"surrogate"}, {"words":16777216},

		{"backend":"nope","f":0.3}, {"backend":"nada","chip":"snapdragon821"}, {"backend":"nope","fpw":128},
		{"backend":"nada"}, {"backend":"nope","chip":"snapdragon835x"}, {"backend":"nada","fpw":8},

		{"chip":"snapdragon821","f":0.15,"fpw":512}, {"f":0.65,"fpw":128}, {"chip":"snapdragon835x","f":0.05},
		{"backend":"analytic","chip":"snapdragon821","f":0.8}, {"dsp":0.5,"f":0.1}, {"backend":"surrogate","f":0.5}]}`))
	targets := []string{"/eval/batch", "/eval/batch?stream=1"}
	var want [][]byte // per body and target, at BatchWorkers 1
	for _, opts := range []Options{{BatchWorkers: 1}, {BatchWorkers: 2}, {BatchWorkers: 4}, {MaxInFlight: 1, BatchWorkers: 4}} {
		h := NewHandler(opts)
		var got [][]byte
		for b, body := range bodies {
			for _, target := range targets {
				rec := serve(h, http.MethodPost, target, string(body))
				if rec.Code != http.StatusOK {
					t.Fatalf("%+v %s body %d: status %d: %s", opts, target, b, rec.Code, rec.Body)
				}
				if want != nil && !bytes.Equal(rec.Body.Bytes(), want[len(got)]) {
					t.Errorf("%+v %s body %d: response differs from BatchWorkers 1", opts, target, b)
				}
				got = append(got, rec.Body.Bytes())
			}
		}
		if want == nil {
			want = got
		}
	}
}

// TestBatchWritersBounded pins what a request keeps in pooled writers: a
// buffered body spreads over writers of about batchBlock bytes each, not
// one per worker as large as its whole share, and a stream whose lines
// are sent as soon as they are final keeps reusing one small writer.
func TestBatchWritersBounded(t *testing.T) {
	req, err := decodeBatchBody(bytes.NewReader(batchBenchBodies(t, 1, batchBenchItems, 5)[0]))
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(Options{BatchWorkers: 1})
	const slack = 4 << 10 // more than one encoded item

	encs := s.answerBatch(context.Background(), req, batchOut{final: func(int, encodedItem) {}})
	total := 0
	for _, enc := range encs {
		if n := len(enc.Bytes()); n > batchBlock+slack {
			t.Errorf("a buffered writer holds %d bytes, want at most %d", n, batchBlock+slack)
		}
		total += len(enc.Bytes())
	}
	if len(encs) < 2 || total <= batchBlock {
		t.Errorf("%d writers hold %d bytes: the body should span several blocks", len(encs), total)
	}
	putResponses(encs)

	var sent atomic.Int64
	encs = s.answerBatch(context.Background(), req, batchOut{stream: true, sent: &sent, final: func(i int, _ encodedItem) {
		sent.Store(int64(i + 1)) // a writer that keeps up
	}})
	if len(encs) != 1 || len(encs[0].Bytes()) > slack {
		t.Errorf("a stream that keeps up left %d writers, the first holding %d bytes; want one holding one line", len(encs), len(encs[0].Bytes()))
	}
	putResponses(encs)
}

// batchBodyAllocCeiling is what one serve-batch-shaped buffered body
// allocates through the handler at BatchWorkers 1 (1239–1241 measured,
// go1.24.0): mostly each item's work split and fingerprint, the
// surrogate items' outcomes, and each run's slab set-up.
const batchBodyAllocCeiling = 1241

// TestBatchBodyAllocs pins what one serve-batch-shaped buffered body
// costs through the handler as served, with a reused recorder and a
// rewound request body, so that a per-item allocation added anywhere on
// the batch path shows here as 256 more.
func TestBatchBodyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime allocates where the served program does not")
	}
	h := NewHandler(Options{BatchWorkers: 1})
	r := httptest.NewRequest(http.MethodPost, "/eval/batch", nil)
	body := rewindBody{bytes.NewReader(batchBenchBodies(t, 1, batchBenchItems, 1)[0])}
	r.Body = body
	rec := newBenchRecorder()
	post := func() {
		body.Seek(0, io.SeekStart)
		rec.reset()
		h.ServeHTTP(rec, r)
	}
	post() // calibrates the surrogate and compiles the presets
	if rec.status != http.StatusOK {
		t.Fatalf("status %d: %s", rec.status, rec.body.Bytes())
	}
	want := bytes.Clone(rec.body.Bytes())
	allocs := testing.AllocsPerRun(20, post)
	if rec.status != http.StatusOK || !bytes.Equal(rec.body.Bytes(), want) {
		t.Fatalf("status %d: a repeated body was answered differently", rec.status)
	}
	if allocs > batchBodyAllocCeiling {
		t.Errorf("a %d-item body allocates %v times, ceiling %d", batchBenchItems, allocs, batchBodyAllocCeiling)
	}
}
