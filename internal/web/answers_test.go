package web

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/gables-model/gables/internal/eval"
)

// answerStub answers every query with a fixed Attainable, or fails with
// fail; it honours a canceled context first.
type answerStub struct {
	attainable float64
	fail       error
}

func (s *answerStub) Meta() eval.Meta {
	return eval.Meta{Name: "stub-answers", Fidelity: eval.FidelityAnalytic, Description: "answer-cache test stub"}
}
func (s *answerStub) Supports(eval.Query) error { return nil }
func (s *answerStub) Evaluate(ctx context.Context, q eval.Query) (*eval.Outcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.fail != nil {
		return nil, s.fail
	}
	return &eval.Outcome{Backend: "stub-answers", Fidelity: eval.FidelityAnalytic, Attainable: s.attainable, TotalFlops: 1}, nil
}

// getOK serves one GET and fails the test unless it answered 200 JSON.
func getOK(t *testing.T, h http.Handler, target string) []byte {
	t.Helper()
	rec := serve(h, http.MethodGet, target, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", target, rec.Code, rec.Body.Bytes())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: content type %q", target, ct)
	}
	return rec.Body.Bytes()
}

// TestAnswerCacheBytes pins that a cached answer is the answer: over every
// chip and backend on the canary shapes, the miss's bytes, the hit's bytes
// and a fresh server's bytes are equal, and reordered or escaped
// spellings of one question (and the default chip spelled "" or
// snapdragon835) share one entry.
func TestAnswerCacheBytes(t *testing.T) {
	s := newServer(Options{})
	h := s.routes()
	want := map[string][]byte{} // by backend and shape, on snapdragon835
	for _, chip := range []string{"snapdragon835", "snapdragon821", "snapdragon835x"} {
		for _, backend := range []string{"analytic", "surrogate", "auto", "sim"} {
			for _, shape := range []struct {
				f   string
				fpw int
			}{{"0.5", 32}, {"0.25", 512}} {
				plain := fmt.Sprintf("/eval?chip=%s&backend=%s&f=%s&fpw=%d", chip, backend, shape.f, shape.fpw)
				before := s.answers.Stats()
				miss := getOK(t, h, plain)
				if st := s.answers.Stats(); st.Misses != before.Misses+1 || st.Entries != before.Entries+1 {
					t.Fatalf("%s: first ask left stats %+v (before %+v), want one miss stored", plain, st, before)
				}
				spellings := []string{
					plain,
					fmt.Sprintf("/eval?fpw=%d&f=%s&backend=%s&chip=%s", shape.fpw, shape.f, backend, chip),
					fmt.Sprintf("/eval?ch%%69p=%%%x%s&backend=%s&f=%s&%%66pw=%d",
						chip[0], chip[1:], backend, strings.ReplaceAll(shape.f, ".", "%2E"), shape.fpw),
				}
				for _, target := range spellings {
					if hit := getOK(t, h, target); string(hit) != string(miss) {
						t.Errorf("%s: hit bytes differ from the miss's:\n%s\nwant\n%s", target, hit, miss)
					}
					if fresh := getOK(t, NewHandler(Options{}), target); string(fresh) != string(miss) {
						t.Errorf("%s: a fresh server's bytes differ from the cached answer:\n%s\nwant\n%s", target, fresh, miss)
					}
				}
				if st := s.answers.Stats(); st.Hits != before.Hits+uint64(len(spellings)) || st.Entries != before.Entries+1 {
					t.Errorf("%s: spellings left stats %+v (before %+v), want %d hits on one entry", plain, st, before, len(spellings))
				}
				if chip == "snapdragon835" {
					want[backend+shape.f] = miss
				}
			}
		}
	}

	// The default chip, spelled empty or not at all, is snapdragon835's
	// entry.
	before := s.answers.Stats()
	for _, target := range []string{"/eval?chip=&backend=sim&f=0.5&fpw=32", "/eval?backend=analytic&f=0.25&fpw=512"} {
		backend, f := "sim", "0.5"
		if strings.Contains(target, "analytic") {
			backend, f = "analytic", "0.25"
		}
		if got := getOK(t, h, target); string(got) != string(want[backend+f]) {
			t.Errorf("%s: bytes differ from snapdragon835's:\n%s\nwant\n%s", target, got, want[backend+f])
		}
	}
	if st := s.answers.Stats(); st.Hits != before.Hits+2 || st.Entries != before.Entries {
		t.Errorf("default-chip spellings left stats %+v (before %+v), want 2 hits and no new entry", st, before)
	}
}

// TestAnswerCacheKeyFields pins that every input of the question is in
// the key: asked after a base question on the same server, a question
// that differs in one field gets a fresh server's answer to it, never the
// base's.
func TestAnswerCacheKeyFields(t *testing.T) {
	const base = "/eval?backend=analytic&f=0.5&fpw=32"
	h := NewHandler(Options{})
	baseBody := getOK(t, h, base)
	for _, extra := range []string{
		"&chip=snapdragon821", "&backend=sim", "&f=0.25", "&dsp=0.125",
		"&fpw=64", "&words=8388608", "&trials=3", "&serialized=1",
	} {
		// The first value of a key is the one read, so the change goes
		// in front of the base's keys.
		target := "/eval?" + extra[1:] + "&" + base[len("/eval?"):]
		got := getOK(t, h, target)
		if want := getOK(t, NewHandler(Options{}), target); string(got) != string(want) {
			t.Errorf("%s after %s: got\n%s\nwant a fresh server's\n%s", target, base, got, want)
		}
		if string(got) == string(baseBody) {
			t.Errorf("%s: answered the base question's bytes", target)
		}
	}
}

// TestAnswerCacheReregister pins that the cache keys the evaluator
// instance: a backend re-registered under the same name answers at once,
// never the old instance's stored bytes.
func TestAnswerCacheReregister(t *testing.T) {
	const target = "/eval?backend=stub-answers"
	h := NewHandler(Options{})
	attainable := func() float64 {
		var resp evalResponse
		if err := json.Unmarshal(getOK(t, h, target), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Outcome.Attainable
	}
	eval.Register("stub-answers", func() (eval.Evaluator, error) { return &answerStub{attainable: 1}, nil })
	for i := 0; i < 2; i++ {
		if got := attainable(); got != 1 {
			t.Fatalf("ask %d: attainable %v, want 1", i, got)
		}
	}
	eval.Register("stub-answers", func() (eval.Evaluator, error) { return &answerStub{attainable: 2}, nil })
	if got := attainable(); got != 2 {
		t.Errorf("after re-registering: attainable %v, want the new instance's 2", got)
	}
}

// TestAnswerCacheStoresOnlyAnswers pins that nothing but a 200 is stored:
// not a 400, a 422, a 500 or a canceled request.
func TestAnswerCacheStoresOnlyAnswers(t *testing.T) {
	eval.Register("stub-answers-fail", func() (eval.Evaluator, error) {
		return &answerStub{fail: errors.New("stub: no answer")}, nil
	})
	eval.Register("stub-answers-cancel", func() (eval.Evaluator, error) { return &answerStub{attainable: 1}, nil })
	eval.Register("stub-nonfinite", func() (eval.Evaluator, error) { return nonFiniteBackend{}, nil })
	s := newServer(Options{})
	h := s.routes()

	for _, tc := range []struct {
		target string
		want   int
	}{
		{"/eval?f=1.5", http.StatusBadRequest},
		{"/eval?f=0.5&dsp=0.75", http.StatusBadRequest},
		{"/eval?chip=nope", http.StatusBadRequest},
		{"/eval?backend=nope", http.StatusBadRequest},
		{"/eval?fpw=x", http.StatusBadRequest},
		{"/eval?backend=stub-answers-fail", http.StatusUnprocessableEntity},
		{"/eval?backend=stub-nonfinite&trials=2", http.StatusInternalServerError},
	} {
		for i := 0; i < 2; i++ {
			if rec := serve(h, http.MethodGet, tc.target, ""); rec.Code != tc.want {
				t.Errorf("GET %s (ask %d): status %d, want %d", tc.target, i, rec.Code, tc.want)
			}
		}
	}
	if st := s.answers.Stats(); st.Entries != 0 || st.Hits != 0 {
		t.Errorf("failed questions left stats %+v, want nothing stored or hit", st)
	}

	// A question that cannot be built is reported before an unknown
	// backend.
	rec := serve(h, http.MethodGet, "/eval?backend=nope&f=1.5", "")
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "fractions") {
		t.Errorf("bad fraction and backend: %d %s, want 400 naming the fractions", rec.Code, rec.Body.Bytes())
	}

	const target = "/eval?backend=stub-answers-cancel"
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	canceled := httptest.NewRecorder()
	s.evalHandler(canceled, httptest.NewRequest(http.MethodGet, target, nil).WithContext(ctx))
	if canceled.Code != http.StatusUnprocessableEntity {
		t.Errorf("canceled request: status %d, want 422", canceled.Code)
	}
	if st := s.answers.Stats(); st.Entries != 0 {
		t.Errorf("canceled request left %d entries, want 0", st.Entries)
	}
	getOK(t, h, target)
	if st := s.answers.Stats(); st.Entries != 1 {
		t.Errorf("the same question asked live left %d entries, want 1", st.Entries)
	}
}

// TestAnswerCacheBound pins the cache's bound: 1025 distinct questions
// leave answerCap entries, the oldest evicted.
func TestAnswerCacheBound(t *testing.T) {
	s := newServer(Options{})
	h := s.routes()
	target := func(i int) string {
		return "/eval?backend=analytic&f=" + strconv.FormatFloat(float64(i+1)/2048, 'g', -1, 64)
	}
	for i := 0; i <= answerCap; i++ {
		getOK(t, h, target(i))
	}
	if st := s.answers.Stats(); st.Entries != answerCap || st.Evictions != 1 || st.Misses != answerCap+1 {
		t.Fatalf("after %d questions: stats %+v, want %d entries and 1 eviction", answerCap+1, st, answerCap)
	}
	before := s.answers.Stats()
	getOK(t, h, target(answerCap)) // the newest: still stored
	getOK(t, h, target(0))         // the oldest: evicted
	if st := s.answers.Stats(); st.Hits != before.Hits+1 || st.Misses != before.Misses+1 || st.Entries != answerCap {
		t.Errorf("re-asking the newest and the oldest: stats %+v (before %+v), want one hit and one miss", st, before)
	}
}

// TestAnswerCacheConcurrent asks one server the same questions from many
// goroutines at once, so hits, misses and stores race (run it under
// -race); every answer must be a fresh server's bytes.
func TestAnswerCacheConcurrent(t *testing.T) {
	var targets []string
	for _, chip := range []string{"snapdragon835", "snapdragon821", "snapdragon835x"} {
		for _, backend := range []string{"analytic", "surrogate", "auto", "sim"} {
			for _, f := range []string{"0.3", "0.6"} {
				targets = append(targets, fmt.Sprintf("/eval?chip=%s&backend=%s&f=%s&fpw=128", chip, backend, f))
			}
		}
	}
	ref := NewHandler(Options{})
	want := make([]string, len(targets))
	for i, target := range targets {
		want[i] = string(getOK(t, ref, target))
	}

	const workers, rounds = 8, 3
	s := newServer(Options{})
	h := s.routes()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < rounds*len(targets); n++ {
				i := (g*5 + n) % len(targets)
				rec := serve(h, http.MethodGet, targets[i], "")
				if rec.Code != http.StatusOK || rec.Body.String() != want[i] {
					t.Errorf("%s: status %d, bytes differ from a fresh server's:\n%s", targets[i], rec.Code, rec.Body.Bytes())
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.answers.Stats()
	if st.Entries != len(targets) || st.Hits+st.Misses != workers*rounds*uint64(len(targets)) {
		t.Errorf("stats %+v, want %d entries and %d lookups", st, len(targets), workers*rounds*len(targets))
	}
	if st.Misses < uint64(len(targets)) || st.Misses > workers*uint64(len(targets)) {
		t.Errorf("%d misses, want between %d and %d", st.Misses, len(targets), workers*len(targets))
	}
}

// TestAnswerCacheStats pins the /stats eval_answers block: one repeat of
// a question moves hits by exactly one and adds no entry.
func TestAnswerCacheStats(t *testing.T) {
	h := NewHandler(Options{})
	stats := func() answerStats {
		var snapshot struct {
			Answers *answerStats `json:"eval_answers"`
		}
		if err := json.Unmarshal(getOK(t, h, "/stats"), &snapshot); err != nil {
			t.Fatal(err)
		}
		if snapshot.Answers == nil {
			t.Fatal("stats payload carries no eval_answers section")
		}
		return *snapshot.Answers
	}
	const target = "/eval?backend=analytic&f=0.42"
	getOK(t, h, target)
	first := stats()
	if first.Misses != 1 || first.Hits != 0 || first.Entries != 1 {
		t.Errorf("after one question: %+v, want 1 miss stored", first)
	}
	getOK(t, h, target)
	if got := stats(); got.Hits != first.Hits+1 || got.Misses != first.Misses || got.Entries != first.Entries || got.Evictions != 0 {
		t.Errorf("after a repeat: %+v (before %+v), want exactly one more hit", got, first)
	}
}

// TestAnswerCacheHitAllocs pins what a repeated GET /eval costs through
// the handler as served, with a reused recorder: admission, the query
// read, the cache lookup, the Content-Type header and the write allocate
// nothing, and every hit is sent as exactly application/json. The shared
// Content-Type values must keep cap 1 (encode.go).
func TestAnswerCacheHitAllocs(t *testing.T) {
	h := NewHandler(Options{})
	r := httptest.NewRequest(http.MethodGet, "/eval?chip=snapdragon821&backend=analytic&f=0.35&fpw=128", nil)
	rec := newBenchRecorder()
	h.ServeHTTP(rec, r) // the miss that stores the answer
	if rec.status != http.StatusOK {
		t.Fatalf("status %d: %s", rec.status, rec.body.Bytes())
	}
	want := bytes.Clone(rec.body.Bytes())
	var bad []string
	allocs := testing.AllocsPerRun(100, func() {
		rec.reset()
		h.ServeHTTP(rec, r)
		if ct := rec.hdr["Content-Type"]; rec.status != http.StatusOK || len(ct) != 1 || ct[0] != "application/json" || !bytes.Equal(rec.body.Bytes(), want) {
			bad = append(bad, fmt.Sprintf("status %d, Content-Type %q", rec.status, ct))
		}
	})
	if allocs != 0 {
		t.Errorf("a hit allocates %v times, want 0", allocs)
	}
	if len(bad) > 0 {
		t.Errorf("%d of the hits were not the stored JSON answer; first: %s", len(bad), bad[0])
	}
	if cap(jsonTypeHeader) != 1 || cap(ndjsonTypeHeader) != 1 {
		t.Errorf("shared Content-Type values have cap %d and %d, want 1", cap(jsonTypeHeader), cap(ndjsonTypeHeader))
	}
}
