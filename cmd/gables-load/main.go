// Command gables-load drives synthetic traffic against a gables-web
// instance and records the serving trajectory. It issues an open-loop
// request stream (arrivals fire on schedule whether or not earlier
// requests have completed — the honest overload model; a closed loop
// self-throttles and can never exhibit the shed path) with a seeded,
// reproducible query mix over /eval and /eval/batch, in two phases:
//
//   - cold: the first pass over the mix, paying real evaluations;
//   - warm: the identical seeded sequence again, so the delta between
//     the phases is the server's cache trajectory.
//
// Each phase records request counts (ok / shed / failed), p50 and p99
// latency, the shed rate, and the server-side cache hit/miss deltas read
// from /stats. A Record tagged with the git SHA and Go version is
// appended to BENCH_serve.json; DESIGN.md §13 describes how to read it.
//
// Usage:
//
//	gables-load [-target http://host:8337 | -inprocess] [-rate 200] [-n 400]
//	            [-backend analytic] [-batch-frac 0.1] [-seed 1]
//	            [-out BENCH_serve.json] [-check] [-dry]
//
// With -inprocess the tool serves web.Handler on a loopback listener and
// drives itself — the CI load-smoke shape, no external process needed.
// With -check the process exits 1 when the produced record is
// structurally invalid (counts that do not add up, out-of-range rates,
// inverted percentiles).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/gables-model/gables/internal/web"
)

// request is one synthetic query: a GET when Body is empty, a POST to
// /eval/batch otherwise.
type request struct {
	Path string `json:"path"`
	Body string `json:"body,omitempty"`
}

// GenRequests builds the seeded query mix: n requests over the chip
// presets with fractions and intensities drawn from small grids (so a
// repeat pass re-asks mostly-seen questions and exercises the server's
// caches), batchFrac of them as 4-item /eval/batch posts. The same seed
// always yields the identical sequence — the warm phase replays it.
func GenRequests(seed int64, n int, backend string, batchFrac float64) []request {
	rng := rand.New(rand.NewSource(seed))
	chips := []string{"", "snapdragon821", "snapdragon835x"}
	fpws := []int{32, 128, 512}
	reqs := make([]request, n)
	for i := range reqs {
		if rng.Float64() < batchFrac {
			var items []string
			for k := 0; k < 4; k++ {
				items = append(items, fmt.Sprintf(`{"chip":%q,"f":0.%d,"fpw":%d}`,
					chips[rng.Intn(len(chips))], rng.Intn(9)+1, fpws[rng.Intn(len(fpws))]))
			}
			reqs[i] = request{
				Path: "/eval/batch",
				Body: fmt.Sprintf(`{"backend":%q,"items":[%s]}`, backend, strings.Join(items, ",")),
			}
			continue
		}
		reqs[i] = request{Path: fmt.Sprintf("/eval?backend=%s&chip=%s&f=0.%d&fpw=%d",
			backend, chips[rng.Intn(len(chips))], rng.Intn(9)+1, fpws[rng.Intn(len(fpws))])}
	}
	return reqs
}

// PhaseStats is one phase's measurement.
type PhaseStats struct {
	Phase    string `json:"phase"`
	Requests int    `json:"requests"`
	// OK / Shed / Failed partition Requests: 200s, 429s, everything else
	// (including transport errors).
	OK     int `json:"ok"`
	Shed   int `json:"shed"`
	Failed int `json:"failed"`
	// P50Ms and P99Ms summarize completed-request latency.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// ShedRate is Shed/Requests.
	ShedRate float64 `json:"shed_rate"`
	// CacheHits/CacheMisses are the server-side /stats deltas over the
	// phase (summed across the page, sim-run and /eval answer caches;
	// an /eval answer cache hit reaches no sim run); the warm
	// phase's hit rate rising toward 1 is the cache trajectory working.
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// Record is one gables-load run.
type Record struct {
	GitSHA     string       `json:"git_sha"`
	GoVersion  string       `json:"go_version"`
	Target     string       `json:"target"`
	Backend    string       `json:"backend"`
	RatePerSec float64      `json:"rate_per_sec"`
	Seed       int64        `json:"seed"`
	Phases     []PhaseStats `json:"phases"`
}

// File is the serving trajectory: records in run order, newest last.
type File struct {
	Records []Record `json:"records"`
}

// Load reads a trajectory file; a missing file is an empty trajectory.
func Load(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return f, nil
	}
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("gables-load: %s: %v", path, err)
	}
	return f, nil
}

// Save writes the trajectory with stable, diff-friendly formatting.
func Save(path string, f File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ValidateRecord checks a record's internal consistency — the CI
// load-smoke job runs with -check so a half-written or nonsensical
// trajectory fails loudly instead of being uploaded as an artifact.
func ValidateRecord(r Record) error {
	if r.GitSHA == "" || r.GoVersion == "" {
		return fmt.Errorf("record missing git_sha/go_version")
	}
	if r.Target == "" {
		return fmt.Errorf("record missing target")
	}
	if r.RatePerSec <= 0 {
		return fmt.Errorf("rate_per_sec = %v, want positive", r.RatePerSec)
	}
	if len(r.Phases) == 0 {
		return fmt.Errorf("record has no phases")
	}
	for _, p := range r.Phases {
		if p.Phase == "" {
			return fmt.Errorf("unnamed phase")
		}
		if p.Requests <= 0 {
			return fmt.Errorf("phase %s: no requests", p.Phase)
		}
		if p.OK+p.Shed+p.Failed != p.Requests {
			return fmt.Errorf("phase %s: ok+shed+failed = %d, want %d",
				p.Phase, p.OK+p.Shed+p.Failed, p.Requests)
		}
		if p.OK > 0 && (p.P50Ms < 0 || p.P99Ms < p.P50Ms) {
			return fmt.Errorf("phase %s: percentiles p50=%v p99=%v", p.Phase, p.P50Ms, p.P99Ms)
		}
		if p.ShedRate < 0 || p.ShedRate > 1 {
			return fmt.Errorf("phase %s: shed_rate = %v", p.Phase, p.ShedRate)
		}
		if p.CacheHitRate < 0 || p.CacheHitRate > 1 {
			return fmt.Errorf("phase %s: cache_hit_rate = %v", p.Phase, p.CacheHitRate)
		}
	}
	return nil
}

// Percentile returns the q-quantile (0..1) of the values by
// nearest-rank on a sorted copy; 0 when empty.
func Percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// cacheCounters is the slice of /stats this tool reads: the hit/miss
// counters of the two simcache sections and of the /eval answer cache.
type cacheCounters struct {
	Hits, Misses int64
}

// fetchCacheCounters sums the hit and miss counters across the server's
// cache sections; errors degrade to zeros (the load numbers still stand
// when /stats is unreachable).
func fetchCacheCounters(client *http.Client, base string) cacheCounters {
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return cacheCounters{}
	}
	defer resp.Body.Close()
	var snap map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return cacheCounters{}
	}
	var total cacheCounters
	for _, section := range []string{"web_eval", "sim_runs", "eval_answers"} {
		raw, ok := snap[section]
		if !ok {
			continue
		}
		var s struct {
			Hits      int64 `json:"hits"`
			DiskHits  int64 `json:"disk_hits"`
			Coalesced int64 `json:"coalesced"`
			Misses    int64 `json:"misses"`
		}
		if err := json.Unmarshal(raw, &s); err != nil {
			continue
		}
		total.Hits += s.Hits + s.DiskHits + s.Coalesced
		total.Misses += s.Misses
	}
	return total
}

// runPhase fires the requests open-loop at rate req/s and collects the
// phase's statistics. Arrivals are scheduled from the phase start, so a
// slow server accumulates in-flight requests instead of slowing the
// stream down — exactly the regime admission control exists for.
func runPhase(client *http.Client, base, phase string, reqs []request, rate float64) PhaseStats {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var (
		mu        sync.Mutex
		latencies []float64
		ps        = PhaseStats{Phase: phase, Requests: len(reqs)}
		wg        sync.WaitGroup
	)
	before := fetchCacheCounters(client, base)
	for i, rq := range reqs {
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(rq request) {
			defer wg.Done()
			t0 := time.Now()
			var resp *http.Response
			var err error
			if rq.Body != "" {
				resp, err = client.Post(base+rq.Path, "application/json", strings.NewReader(rq.Body))
			} else {
				resp, err = client.Get(base + rq.Path)
			}
			elapsed := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				ps.Failed++
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch {
			case resp.StatusCode == http.StatusOK:
				ps.OK++
				latencies = append(latencies, float64(elapsed)/float64(time.Millisecond))
			case resp.StatusCode == http.StatusTooManyRequests:
				ps.Shed++
			default:
				ps.Failed++
			}
		}(rq)
	}
	wg.Wait()
	after := fetchCacheCounters(client, base)

	ps.P50Ms = Percentile(latencies, 0.50)
	ps.P99Ms = Percentile(latencies, 0.99)
	ps.ShedRate = float64(ps.Shed) / float64(ps.Requests)
	ps.CacheHits = after.Hits - before.Hits
	ps.CacheMisses = after.Misses - before.Misses
	if total := ps.CacheHits + ps.CacheMisses; total > 0 {
		ps.CacheHitRate = float64(ps.CacheHits) / float64(total)
	}
	return ps
}

// gitSHA resolves HEAD (suffixed -dirty on a modified worktree), or
// "unknown" outside a git checkout.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(out))
	if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(status) > 0 {
		sha += "-dirty"
	}
	return sha
}

// startInProcess serves web.Handler on a loopback listener and returns
// the base URL and a shutdown func.
func startInProcess() (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: web.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() { srv.Close() }, nil
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("gables-load", flag.ContinueOnError)
	target := fs.String("target", "", "base URL of a running gables-web (e.g. http://localhost:8337)")
	inprocess := fs.Bool("inprocess", false, "serve web.Handler in-process on loopback and drive that")
	rate := fs.Float64("rate", 200, "open-loop arrival rate, requests/second")
	n := fs.Int("n", 400, "requests per phase")
	backend := fs.String("backend", "analytic", "backend the query mix names")
	batchFrac := fs.Float64("batch-frac", 0.1, "fraction of requests issued as 4-item /eval/batch posts")
	seed := fs.Int64("seed", 1, "query-mix seed (the warm phase replays the same sequence)")
	out := fs.String("out", "BENCH_serve.json", "trajectory file to append to")
	check := fs.Bool("check", false, "exit 1 when the produced record is structurally invalid")
	dry := fs.Bool("dry", false, "measure and report without rewriting the trajectory file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*target == "") == !*inprocess {
		fmt.Fprintln(os.Stderr, "gables-load: need exactly one of -target or -inprocess")
		return 2
	}
	if *rate <= 0 || *n <= 0 {
		fmt.Fprintln(os.Stderr, "gables-load: -rate and -n must be positive")
		return 2
	}

	base := *target
	if *inprocess {
		var shutdown func()
		var err error
		base, shutdown, err = startInProcess()
		if err != nil {
			fmt.Fprintln(os.Stderr, "gables-load:", err)
			return 1
		}
		defer shutdown()
	}
	base = strings.TrimRight(base, "/")

	client := &http.Client{Timeout: 30 * time.Second}
	reqs := GenRequests(*seed, *n, *backend, *batchFrac)
	rec := Record{
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		Target:     base,
		Backend:    *backend,
		RatePerSec: *rate,
		Seed:       *seed,
	}
	for _, phase := range []string{"cold", "warm"} {
		ps := runPhase(client, base, phase, reqs, *rate)
		rec.Phases = append(rec.Phases, ps)
		fmt.Fprintf(stdout, "%-5s %5d req  ok %-5d shed %-4d failed %-4d p50 %7.2fms  p99 %7.2fms  cache hit %5.1f%%\n",
			ps.Phase, ps.Requests, ps.OK, ps.Shed, ps.Failed, ps.P50Ms, ps.P99Ms, 100*ps.CacheHitRate)
	}

	if err := ValidateRecord(rec); err != nil {
		fmt.Fprintln(os.Stderr, "gables-load: invalid record:", err)
		if *check {
			return 1
		}
	}

	if !*dry {
		traj, err := Load(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		traj.Records = append(traj.Records, rec)
		if err := Save(*out, traj); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "appended record %d to %s\n", len(traj.Records)-1, *out)
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }
