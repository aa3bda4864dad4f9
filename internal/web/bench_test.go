package web

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// batchBenchItems is the item count of one benchmark body, matching the
// serve-batch workload's request size.
const batchBenchItems = 256

// batchBenchBodies builds n serve-batch-shaped request bodies of size
// items each: compact json.Marshal output, three analytic items to one
// surrogate item (inside the calibrated envelope, f 0.15–0.6), random
// preset chips and intensities, and no item repeated across the bodies.
func batchBenchBodies(tb testing.TB, n, size int, seed int64) [][]byte {
	tb.Helper()
	type item struct {
		Chip    string  `json:"chip"`
		Backend string  `json:"backend"`
		F       float64 `json:"f"`
		FPW     int     `json:"fpw"`
	}
	chips := []string{"snapdragon835", "snapdragon821", "snapdragon835x"}
	fpws := []int{8, 32, 128, 512}
	rng := rand.New(rand.NewSource(seed))
	seen := map[item]bool{}
	var bodies [][]byte
	for len(bodies) < n {
		items := make([]item, 0, size)
		for len(items) < size {
			it := item{Backend: "analytic", F: float64(1000+rng.Intn(8001)) / 1e4}
			if len(items)%4 == 3 {
				it = item{Backend: "surrogate", F: float64(1500+rng.Intn(4501)) / 1e4}
			}
			it.Chip = chips[rng.Intn(len(chips))]
			it.FPW = fpws[rng.Intn(len(fpws))]
			if !seen[it] {
				seen[it] = true
				items = append(items, it)
			}
		}
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		body, err := json.Marshal(struct {
			Items []item `json:"items"`
		}{items})
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

// benchRecorder is a reusable in-memory http.ResponseWriter, so the
// benchmarks measure the handler rather than a fresh recorder's buffer
// growth.
type benchRecorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func newBenchRecorder() *benchRecorder { return &benchRecorder{hdr: http.Header{}} }

func (w *benchRecorder) Header() http.Header { return w.hdr }

func (w *benchRecorder) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *benchRecorder) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

// Flush makes the recorder an http.Flusher, like a real connection.
func (w *benchRecorder) Flush() {}

func (w *benchRecorder) reset() {
	clear(w.hdr)
	w.status = 0
	w.body.Reset()
}

// rewindBody is a request body that can be read again from its start.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

// BenchmarkBatchHandler calls the /eval/batch handler in-process on
// serve-batch-shaped bodies, buffered and as NDJSON, with prebuilt
// requests and one reused recorder. Each body is answered once before the
// timer starts, so the surrogate calibration and other lazy set-up are
// done and the loop measures the handler: body decode, query building,
// grouping, the analytic slab, surrogate items, fingerprints and response
// encoding. The -1worker variants run the same handler at BatchWorkers 1,
// so the fan-out's speedup is the ratio of two lines of one run.
func BenchmarkBatchHandler(b *testing.B) {
	bodies := batchBenchBodies(b, 16, batchBenchItems, 1)
	for _, bc := range []struct {
		name, target string
		workers      int
	}{
		{"buffered", "/eval/batch", 0},
		{"ndjson", "/eval/batch?stream=1", 0},
		{"buffered-1worker", "/eval/batch", 1},
		{"ndjson-1worker", "/eval/batch?stream=1", 1},
	} {
		h := NewHandler(Options{BatchWorkers: bc.workers})
		reqs := make([]*http.Request, len(bodies))
		for i, body := range bodies {
			reqs[i] = httptest.NewRequest(http.MethodPost, bc.target, nil)
			reqs[i].Body = rewindBody{bytes.NewReader(body)}
		}
		rec := newBenchRecorder()
		b.Run(bc.name, func(b *testing.B) {
			post := func(r *http.Request) {
				r.Body.(rewindBody).Seek(0, io.SeekStart)
				rec.reset()
				h.ServeHTTP(rec, r)
				if rec.status != http.StatusOK {
					b.Fatalf("status %d: %s", rec.status, rec.body.Bytes())
				}
			}
			for _, r := range reqs {
				post(r)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post(reqs[i%len(reqs)])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*batchBenchItems), "us/item")
		})
	}
}

// servePointTargets are 480 serve-point-shaped GET /eval targets: the
// three preset chips, the four backends, fpw 8–512 and ten bands of f.
func servePointTargets() []string {
	var targets []string
	for _, chip := range []string{"snapdragon835", "snapdragon821", "snapdragon835x"} {
		for _, backend := range []string{"analytic", "surrogate", "auto", "sim"} {
			for _, fpw := range []int{8, 32, 128, 512} {
				for band := 1; band <= 10; band++ {
					f := 0.1 + 0.08*float64(band-1)
					targets = append(targets, fmt.Sprintf("/eval?chip=%s&backend=%s&f=%g&fpw=%d", chip, backend, f, fpw))
				}
			}
		}
	}
	return targets
}

// BenchmarkQueryRead reads /eval's eight keys from the raw queries of the
// 480 servePointTargets. The onepass line is query.read, as /eval reads
// them; the parsequery line is url.ParseQuery and one Get per key, the
// lookup it stands for. Their ratio is the reader's speedup.
func BenchmarkQueryRead(b *testing.B) {
	var raws []string
	for _, target := range servePointTargets() {
		_, raw, _ := strings.Cut(target, "?")
		raws = append(raws, raw)
	}
	var form evalForm
	onePass := func(raw string) { query(raw).read(evalKeys[:], form[:]) }
	parseQuery := func(raw string) {
		vals, _ := url.ParseQuery(raw)
		for i, key := range evalKeys {
			form[i] = vals.Get(key)
		}
	}
	for _, raw := range raws {
		onePass(raw)
		want := form
		if parseQuery(raw); form != want {
			b.Fatalf("%s: one pass read %q, url.ParseQuery %q", raw, want, form)
		}
	}
	for _, bc := range []struct {
		name string
		read func(string)
	}{{"onepass", onePass}, {"parsequery", parseQuery}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.read(raws[i%len(raws)])
			}
		})
	}
}

// BenchmarkEvalHandler calls the /eval handler in-process on the 480
// servePointTargets, with prebuilt requests and one reused recorder. Each
// question is answered once before the timer starts, so calibration and
// sim runs are cache-resident. The cached line is the handler as served,
// each question a hit in the server's answer cache; the uncached line
// reads each question and answers it without that cache: query building,
// the backend's cached or closed-form answer, the fingerprint and the
// response encoding. Their ratio is the answer cache's speedup.
func BenchmarkEvalHandler(b *testing.B) {
	var reqs []*http.Request
	for _, target := range servePointTargets() {
		reqs = append(reqs, httptest.NewRequest(http.MethodGet, target, nil))
	}
	s := newServer(Options{})
	uncached := func(w http.ResponseWriter, r *http.Request) {
		req, err := s.readEval(r.URL.RawQuery)
		if err != nil {
			evalError(w, http.StatusBadRequest, err)
			return
		}
		enc, status, err := req.answer(r.Context())
		if err != nil {
			evalError(w, status, err)
			return
		}
		writeBody(w, enc.Bytes())
		putResponse(enc)
	}
	rec := newBenchRecorder()
	get := func(b *testing.B, handle http.HandlerFunc, r *http.Request) []byte {
		rec.reset()
		handle(rec, r)
		if rec.status != http.StatusOK {
			b.Fatalf("%s: status %d: %s", r.URL, rec.status, rec.body.Bytes())
		}
		return rec.body.Bytes()
	}
	for _, r := range reqs {
		want := bytes.Clone(get(b, s.evalHandler, r))
		if got := get(b, uncached, r); !bytes.Equal(got, want) {
			b.Fatalf("%s: uncached answer differs from the cached one:\n%s\nwant\n%s", r.URL, got, want)
		}
	}
	for _, bc := range []struct {
		name   string
		handle http.HandlerFunc
	}{{"cached", s.evalHandler}, {"uncached", uncached}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				get(b, bc.handle, reqs[i%len(reqs)])
			}
		})
	}
}
