package web

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
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

// BenchmarkBatchHandler calls the /eval/batch handler in-process on
// serve-batch-shaped bodies, buffered and as NDJSON. Each body is answered
// once before the timer starts, so the surrogate calibration and other
// lazy set-up are done and the loop measures the handler: body decode,
// query building, grouping, the analytic slab, surrogate items,
// fingerprints and response encoding. The -1worker variants run the same
// handler at BatchWorkers 1, so the fan-out's speedup is the ratio of two
// lines of one run.
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
		b.Run(bc.name, func(b *testing.B) {
			post := func(body []byte) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, bc.target, bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
				}
			}
			for _, body := range bodies {
				post(body)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post(bodies[i%len(bodies)])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*batchBenchItems), "us/item")
		})
	}
}

// BenchmarkEvalHandler calls the /eval handler in-process on 480
// serve-point-shaped questions: the three preset chips, the four
// backends, fpw 8–512 and ten bands of f. Each question is answered once
// before the timer starts, so calibration and sim runs are cache-resident
// and the loop measures the per-request path: query reading, routing, the
// backend's cached or closed-form answer, the fingerprint and the
// response encoding.
func BenchmarkEvalHandler(b *testing.B) {
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
	h := NewHandler(Options{})
	get := func(target string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body.Bytes())
		}
	}
	for _, target := range targets {
		get(target)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get(targets[i%len(targets)])
	}
}
