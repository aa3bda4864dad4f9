// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time with a single closed-loop client, checks every
// answer, and prints one JSON result line:
//
//	perfbench -repro <gables-repro binary> -out <dir> --workload serve-point --seed 1 --seconds 50 --trace 0
//
// Workloads (see README.md for why each exists):
//
//   - serve-point: GET /eval over a seeded set of distinct queries, every
//     answer cache-resident after set-up, through web.Handler().ServeHTTP;
//   - serve-batch: POST /eval/batch with seeded 256-item bodies (3/4
//     analytic slab items, 1/4 surrogate fan-out items), every fourth one
//     streamed as NDJSON.
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of the traced pass (layers.go), which also
// runs the real gables-repro binary, and the spans behind them are written
// to <out>/trace-<workload>.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one benchmark workload: a timed set-up, then a closed loop
// of operations.
type workload interface {
	// setup prepares the workload and returns its set-up samples in
	// seconds, one per process it set up in.
	setup(ctx context.Context) ([]float64, error)
	// op performs one operation and returns the items it answered. A
	// non-nil error marks the operation failed: a transport error, a
	// non-200 status, a per-item error or an output mismatch.
	op(ctx context.Context) (items int, err error)
}

// rounds splits the measured time; items_per_s is the median of the
// per-round rates, so one disturbed round does not move it.
const rounds = 10

// latencySamples bounds the latency samples a run keeps, so the
// benchmark's own memory does not grow with the program's throughput.
const latencySamples = 1 << 16

func main() {
	var (
		name      = flag.String("workload", "", "workload: serve-point or serve-batch")
		seed      = flag.Int64("seed", 1, "seed the workload inputs are generated from")
		seconds   = flag.Int("seconds", 50, "measured seconds")
		traced    = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
		repro     = flag.String("repro", "", "path of the gables-repro binary")
		out       = flag.String("out", ".bench_build", "directory for span files")
		childMode = flag.String("child", "", "internal: run one child probe (setup-serve-point, setup-serve-batch, registry)")
	)
	flag.Parse()
	scrubEnv()
	ctx := context.Background()

	if *childMode != "" {
		if err := runChild(ctx, *childMode, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 {
		fail(fmt.Errorf("-seconds must be at least 1, got %d", *seconds))
	}
	if *repro == "" {
		fail(fmt.Errorf("-repro is required"))
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fail(err)
	}
	var res *result
	if *traced == 1 {
		res, err = runTraced(ctx, w, *name, *seed, *repro, *out, time.Duration(*seconds)*time.Second)
	} else {
		res, err = runUntraced(ctx, w, *name, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// fail reports a benchmark that could not run; it prints no result.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// scrubEnv removes the repository's configuration variables (cache and
// calibration directories, peers, pool sizes, admission limits), so every
// run measures the defaults whatever the caller's environment holds. Child
// processes inherit the scrubbed environment.
func scrubEnv() {
	for _, kv := range os.Environ() {
		if k, _, _ := strings.Cut(kv, "="); strings.HasPrefix(k, "GABLES_") {
			os.Unsetenv(k)
		}
	}
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "serve-point":
		return newServePoint(seed, true), nil
	case "serve-batch":
		return newServeBatch(seed, true), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have serve-point, serve-batch)", name)
}

// loopStats is what one measured closed loop observed.
type loopStats struct {
	rates     []float64  // items/s per round
	latencies *reservoir // seconds per answered operation
	peakRSS   int64      // bytes, the largest resident set sampled
	attempted int64
	failed    int64
	firstErr  error
}

// measure runs the closed loop for d, split into n rounds. When tr is
// non-nil every operation is recorded as a span named spanName.
func measure(ctx context.Context, w workload, d time.Duration, n int, tr *tracer, spanName string) loopStats {
	st := loopStats{latencies: newReservoir(latencySamples)}
	roundLen := d / time.Duration(n)
	var lastRSS time.Time
	for r := 0; r < n; r++ {
		items := 0
		start := time.Now()
		for {
			t0 := time.Now()
			var id spanID
			if tr != nil {
				id = tr.begin(spanName, 0, tr.newRequest())
			}
			k, err := w.op(ctx)
			if tr != nil {
				tr.end(id)
			}
			t1 := time.Now()
			st.attempted++
			if err != nil {
				st.failed++
				if st.firstErr == nil {
					st.firstErr = err
				}
			} else {
				items += k
				st.latencies.add(t1.Sub(t0).Seconds())
			}
			if t1.Sub(lastRSS) >= rssEvery {
				lastRSS = t1
				st.peakRSS = max(st.peakRSS, residentBytes())
			}
			if el := t1.Sub(start); el >= roundLen {
				st.rates = append(st.rates, float64(items)/el.Seconds())
				break
			}
		}
	}
	return st
}

// runUntraced is the end-to-end pass.
func runUntraced(ctx context.Context, w workload, name string, d time.Duration) (*result, error) {
	setup, err := w.setup(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	st := measure(ctx, w, d, rounds, nil, "")
	if st.peakRSS <= 0 {
		return nil, fmt.Errorf("could not read the resident set from %s", statmPath)
	}
	res := &result{
		Correct:   st.failed == 0,
		Attempted: st.attempted,
		Failed:    st.failed,
		Metrics: map[string]metric{
			"setup_s":     {median(setup), "s"},
			"items_per_s": {median(st.rates), "1/s"},
			"p50_ms":      {percentile(st.latencies.xs, 50) * 1e3, "ms"},
			"p90_ms":      {percentile(st.latencies.xs, 90) * 1e3, "ms"},
			"peak_rss_mb": {float64(st.peakRSS) / (1 << 20), "MiB"},
		},
	}
	if st.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", st.firstErr)
	}
	fmt.Fprintf(os.Stderr, "perfbench: per-round items/s %.0f\n", st.rates)
	errorRate := float64(st.failed) / float64(st.attempted)
	fmt.Printf("%s: setup_s=%.4f s items_per_s=%.1f 1/s p50_ms=%.4f ms p90_ms=%.4f ms peak_rss_mb=%.1f MiB error_rate=%g (%d of %d failed; %d latency samples)\n",
		name, res.Metrics["setup_s"].Value, res.Metrics["items_per_s"].Value, res.Metrics["p50_ms"].Value,
		res.Metrics["p90_ms"].Value, res.Metrics["peak_rss_mb"].Value, errorRate, st.failed, st.attempted, st.latencies.n)
	return res, nil
}

// statmPath holds this process's memory use in pages; the second field is
// the resident set.
const statmPath = "/proc/self/statm"

// rssEvery is how often the measured loop samples the resident set. Set-up
// is not sampled: its calibration spikes are not the serving footprint.
const rssEvery = 20 * time.Millisecond

// residentBytes is this process's current resident set, 0 when unknown.
func residentBytes() int64 {
	data, err := os.ReadFile(statmPath)
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
