package web

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gables-model/gables/internal/eval"
)

// Unit tests drive the limiter directly; the HTTP tests below pin the
// same behavior through the mux with a blocking stub backend.

func TestAdmissionImmediate(t *testing.T) {
	a := newAdmission(2, 4)
	r1, err := a.acquire(context.Background(), classInteractive)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.acquire(context.Background(), classBatch)
	if err != nil {
		t.Fatal(err)
	}
	if s := a.Stats(); s.Admitted != 2 || s.InFlight != 2 || s.QueueDepth != 0 {
		t.Fatalf("stats = %+v", s)
	}
	r1()
	r2()
	if s := a.Stats(); s.InFlight != 0 {
		t.Fatalf("in-flight %d after release", s.InFlight)
	}
}

func TestAdmissionQueueGrant(t *testing.T) {
	a := newAdmission(1, 4)
	release, err := a.acquire(context.Background(), classInteractive)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		r, err := a.acquire(context.Background(), classInteractive)
		if err == nil {
			defer r()
		}
		got <- err
	}()
	waitDepth(t, a, 1)
	release()
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	s := a.Stats()
	if s.Admitted != 1 || s.Queued != 1 || s.Shed != 0 || s.Canceled != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Admitted+s.Queued+s.Shed+s.Canceled != 2 {
		t.Fatalf("counter invariant broken: %+v", s)
	}
}

func TestAdmissionShed(t *testing.T) {
	a := newAdmission(1, 1)
	release, err := a.acquire(context.Background(), classBatch)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	done := make(chan struct{})
	defer close(done)
	go func() {
		r, err := a.acquire(context.Background(), classBatch)
		if err == nil {
			<-done
			r()
		}
	}()
	waitDepth(t, a, 1)
	if _, err := a.acquire(context.Background(), classBatch); !errors.Is(err, errShed) {
		t.Fatalf("err = %v, want errShed", err)
	}
	// The other class's queue has its own bound: an interactive request
	// still queues when only the batch queue is full.
	cancelCtx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.acquire(cancelCtx, classInteractive); !errors.Is(err, context.Canceled) {
		t.Fatalf("interactive err = %v, want context.Canceled (queued, not shed)", err)
	}
	s := a.Stats()
	if s.Shed != 1 || s.Canceled != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestAdmissionCancelWhileQueued(t *testing.T) {
	a := newAdmission(1, 4)
	release, err := a.acquire(context.Background(), classInteractive)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := a.acquire(ctx, classInteractive)
		got <- err
	}()
	waitDepth(t, a, 1)
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	s := a.Stats()
	if s.Canceled != 1 || s.QueueDepth != 0 {
		t.Fatalf("stats = %+v (withdrawn waiter must leave the queue)", s)
	}
	release()
	if s := a.Stats(); s.InFlight != 0 {
		t.Fatalf("in-flight %d: release granted a dead waiter?", s.InFlight)
	}
}

// TestAdmissionPriority pins the class order at the limiter level: a
// release grants the interactive queue head even when a batch waiter has
// been waiting longer.
func TestAdmissionPriority(t *testing.T) {
	a := newAdmission(1, 4)
	release, err := a.acquire(context.Background(), classInteractive)
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan string, 2)
	var wg sync.WaitGroup
	start := func(class int, tag string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := a.acquire(context.Background(), class)
			if err != nil {
				t.Errorf("%s: %v", tag, err)
				return
			}
			order <- tag
			r()
		}()
	}
	start(classBatch, "batch") // batch enqueues first...
	waitDepth(t, a, 1)
	start(classInteractive, "interactive")
	waitDepth(t, a, 2)
	release() // ...but interactive is granted first
	wg.Wait()
	if first := <-order; first != "interactive" {
		t.Errorf("first grant went to %q, want interactive", first)
	}
}

func waitDepth(t *testing.T, a *admission, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().QueueDepth != want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (stats %+v)", want, a.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// stubBackend blocks every Evaluate on gate and reports each call's
// trials value on started, so HTTP tests can hold the limiter saturated
// and observe the order evaluations are let through.
type stubBackend struct {
	started chan int
	gate    chan struct{}
}

func (s *stubBackend) Meta() eval.Meta {
	return eval.Meta{Name: "stub", Fidelity: eval.FidelityAnalytic, Description: "blocking test stub"}
}
func (s *stubBackend) Supports(eval.Query) error { return nil }
func (s *stubBackend) Evaluate(ctx context.Context, q eval.Query) (*eval.Outcome, error) {
	s.started <- q.Trials
	select {
	case <-s.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return &eval.Outcome{Backend: "stub", Attainable: 1, TotalFlops: 1}, nil
}

// serveStats fetches /stats and returns the admission section.
func serveStats(t *testing.T, srv *httptest.Server) AdmissionStats {
	t.Helper()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Admission AdmissionStats `json:"admission"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap.Admission
}

func waitHTTPDepth(t *testing.T, srv *httptest.Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for serveStats(t, srv).QueueDepth != want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (stats %+v)", want, serveStats(t, srv))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadSheds pins the HTTP load-shedding contract end to end:
// with the one slot held and the queue full, the next request gets 429
// with a Retry-After hint, and the counters account for every request
// exactly once.
func TestOverloadSheds(t *testing.T) {
	stub := &stubBackend{started: make(chan int, 8), gate: make(chan struct{})}
	eval.Register("stub-shed", func() (eval.Evaluator, error) { return stub, nil })
	srv := httptest.NewServer(NewHandler(Options{MaxInFlight: 1, QueueDepth: 1}))
	defer srv.Close()

	var wg sync.WaitGroup
	slowGet := func(q string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/eval" + q)
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	slowGet("?backend=stub-shed&trials=5") // occupies the slot
	<-stub.started
	slowGet("?backend=stub-shed&trials=6") // queues
	waitHTTPDepth(t, srv, 1)

	resp, err := http.Get(srv.URL + "/eval?backend=stub-shed&trials=7") // shed
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After hint")
	}

	close(stub.gate) // let the occupant and the queued request finish
	<-stub.started
	wg.Wait()

	s := serveStats(t, srv)
	if s.Admitted != 1 || s.Queued != 1 || s.Shed != 1 || s.Canceled != 0 {
		t.Fatalf("stats = %+v, want exactly one of each outcome per request", s)
	}
	if s.InFlight != 0 || s.QueueDepth != 0 {
		t.Fatalf("gauges not drained: %+v", s)
	}
}

// TestBatchFanoutBounded pins the fix for the review's concurrency-bound
// finding: a /eval/batch request's point-wise fan-out must charge every
// worker beyond its own admission slot against MaxInFlight, so real
// evaluation concurrency never reaches MaxInFlight × BatchWorkers.
func TestBatchFanoutBounded(t *testing.T) {
	stub := &stubBackend{started: make(chan int, 16), gate: make(chan struct{})}
	eval.Register("stub-fanout", func() (eval.Evaluator, error) { return stub, nil })
	srv := httptest.NewServer(NewHandler(Options{MaxInFlight: 2, QueueDepth: 4, BatchWorkers: 4}))
	defer srv.Close()

	respc := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/eval/batch", "application/json",
			strings.NewReader(`{"backend":"stub-fanout","items":[{"trials":1},{"trials":2},{"trials":3},{"trials":4}]}`))
		if err != nil {
			respc <- nil
			return
		}
		respc <- resp
	}()

	// The request's own slot plus one free slot: exactly two evaluations
	// may run, despite BatchWorkers = 4 and four pending items.
	<-stub.started
	<-stub.started
	select {
	case trials := <-stub.started:
		t.Fatalf("a third evaluation (trials=%d) started with MaxInFlight=2: fan-out is not charged", trials)
	case <-time.After(100 * time.Millisecond):
	}

	close(stub.gate) // let the two workers drain all four items
	resp := <-respc
	if resp == nil {
		t.Fatal("batch request failed")
	}
	var out batchResponse
	err := json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 4 {
		t.Fatalf("got %d items, want 4", len(out.Items))
	}
	for i, it := range out.Items {
		if it.Error != "" || it.Outcome == nil {
			t.Errorf("item %d: error=%q outcome=%v", i, it.Error, it.Outcome)
		}
	}
	if s := serveStats(t, srv); s.InFlight != 0 {
		t.Fatalf("in-flight %d after the batch drained: extra slots leaked", s.InFlight)
	}
}

// TestOverloadPriorityHTTP pins the class priority through the mux: with
// the slot held, a queued interactive /eval is evaluated before a batch
// request that has been queued longer.
func TestOverloadPriorityHTTP(t *testing.T) {
	stub := &stubBackend{started: make(chan int, 8), gate: make(chan struct{})}
	eval.Register("stub-prio", func() (eval.Evaluator, error) { return stub, nil })
	srv := httptest.NewServer(NewHandler(Options{MaxInFlight: 1, QueueDepth: 4}))
	defer srv.Close()

	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // occupant
		defer wg.Done()
		resp, err := http.Get(srv.URL + "/eval?backend=stub-prio&trials=5")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-stub.started

	go func() { // batch queues first
		defer wg.Done()
		resp, err := http.Post(srv.URL+"/eval/batch", "application/json",
			strings.NewReader(`{"backend":"stub-prio","items":[{"trials":9}]}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitHTTPDepth(t, srv, 1)

	go func() { // interactive queues second
		defer wg.Done()
		resp, err := http.Get(srv.URL + "/eval?backend=stub-prio&trials=7")
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitHTTPDepth(t, srv, 2)

	stub.gate <- struct{}{} // finish the occupant; a slot frees up
	next := <-stub.started  // whoever was granted evaluates next
	if next != 7 {
		t.Errorf("next evaluation was trials=%d, want 7 (interactive before batch)", next)
	}
	stub.gate <- struct{}{}
	last := <-stub.started
	if last != 9 {
		t.Errorf("last evaluation was trials=%d, want 9 (the batch item)", last)
	}
	stub.gate <- struct{}{}
	wg.Wait()

	s := serveStats(t, srv)
	if got := s.Admitted + s.Queued + s.Shed + s.Canceled; got != 3 {
		t.Fatalf("outcome counters sum to %d for 3 requests: %+v", got, s)
	}
}

// TestBatchChunkFanoutBounded is TestBatchFanoutBounded for the analytic
// slab: the fan-out that fingerprints and encodes the slab's items must
// charge every worker beyond the request's own slot, so at MaxInFlight 2
// no more than two workers ever run, and every extra slot is back when
// the request returns.
func TestBatchChunkFanoutBounded(t *testing.T) {
	opts := Options{MaxInFlight: 2, QueueDepth: 4, BatchWorkers: 4}

	// The workers, gated as each finalizes its item: the request's slot
	// and the one free slot run two workers, never a third.
	s := newServer(opts)
	release, err := s.adm.acquire(context.Background(), classBatch)
	if err != nil {
		t.Fatal(err)
	}
	req := batchRequest{Backend: "analytic", Items: make([]batchItem, 16)}
	lines := make([][]byte, len(req.Items))
	entered := make(chan int, len(req.Items))
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		encs := s.answerBatch(context.Background(), req, batchOut{stream: true, final: func(i int, item encodedItem) {
			lines[i] = append([]byte(nil), item.bytes()...)
			entered <- i
			<-gate
		}})
		putResponses(encs)
	}()
	for k := 0; k < 2; k++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d workers started with a free slot and BatchWorkers=4", k)
		}
	}
	select {
	case i := <-entered:
		t.Fatalf("a third worker reached item %d with MaxInFlight=2: the fan-out is not charged", i)
	case <-time.After(100 * time.Millisecond):
	}
	if got := s.adm.Stats().InFlight; got != 2 {
		t.Errorf("in-flight %d during the fan-out, want 2", got)
	}
	close(gate)
	<-done
	release()
	for i, line := range lines {
		var res batchItemResult
		if err := json.Unmarshal(line, &res); err != nil || res.Outcome == nil || res.Fingerprint == "" {
			t.Errorf("item %d: %s (%v), want an answered item", i, line, err)
		}
	}
	if got := s.adm.Stats().InFlight; got != 0 {
		t.Fatalf("in-flight %d after the batch: extra slots leaked", got)
	}

	// Through the mux, fingerprinting and encoding alike: the response is
	// the one a single worker writes, and no slot is left charged.
	srv := httptest.NewServer(NewHandler(opts))
	defer srv.Close()
	body := string(batchBenchBodies(t, 1, 64, 3)[0])
	want := serve(NewHandler(Options{BatchWorkers: 1}), http.MethodPost, "/eval/batch", body).Body.Bytes()
	if resp, got := postBatch(t, srv, "/eval/batch", body); resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Errorf("status %d, body differs from the single-worker response: %v", resp.StatusCode, !bytes.Equal(got, want))
	}
	if s := serveStats(t, srv); s.InFlight != 0 {
		t.Fatalf("in-flight %d after the batch drained: extra slots leaked", s.InFlight)
	}
}
