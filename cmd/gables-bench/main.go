// Command gables-bench records the repository's performance trajectory.
// It runs the engine/sim/harness benchmark suite under `go test -benchmem`,
// parses the per-benchmark ns/op, B/op, and allocs/op, appends a record
// (tagged with the current git SHA and Go version) to BENCH_sim.json, and
// compares the new record against the previous one, flagging regressions
// beyond a relative threshold.
//
// Usage:
//
//	gables-bench [-out BENCH_sim.json] [-benchtime 200ms] [-threshold 0.25] [-check] [-tier1]
//
// With -check the process exits 1 when any benchmark regressed (ns/op or
// allocs/op grew by more than the threshold relative to the previous
// record), when the parallel experiment harness fell below the pinned
// HarnessParallelFloor speedup over the sequential baseline on a machine
// with enough cores, or when the surrogate backend's fitted fast path
// fell below the pinned SurrogateSpeedupFloor over the equivalent cold
// sim query. CI runs this as a non-blocking perf-smoke job and uploads the
// refreshed trajectory as an artifact; DESIGN.md §6 describes how to read
// and refresh the committed file.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// target names one `go test -bench` invocation of the suite.
type target struct {
	Pkg   string
	Bench string
	Tier1 bool // included in the quick CI perf-smoke subset
}

// suite is the benchmark trajectory's fixed coverage: the discrete-event
// core, the bandwidth servers, the whole simulated kernel path, the model
// evaluator, the experiment harness (sequential and parallel, so the
// speedup floor below is checkable from one record), the batched analytic
// grid, the simulation-result cache (cold vs warm sweep grids), and the
// surrogate backend (fitted fast path vs the cold sim query it stands in
// for, plus the warm-cache re-calibration).
var suite = []target{
	{Pkg: "./internal/sim/engine", Bench: ".", Tier1: true},
	{Pkg: "./internal/sim/mem", Bench: ".", Tier1: true},
	{Pkg: ".", Bench: "BenchmarkSimKernel$|BenchmarkSimKernelTraced$|BenchmarkEvaluateTwoIP$|BenchmarkEvaluateNIP$", Tier1: true},
	{Pkg: "./internal/experiments", Bench: "BenchmarkHarnessSequential$", Tier1: true},
	{Pkg: "./internal/experiments", Bench: "BenchmarkHarnessParallel$", Tier1: true},
	{Pkg: "./internal/sweep", Bench: "BenchmarkGridAnalyticBatch$", Tier1: true},
	{Pkg: "./internal/simcache", Bench: "BenchmarkCacheColdGrid$|BenchmarkCacheWarmGrid$", Tier1: true},
	{Pkg: "./internal/surrogate", Bench: "BenchmarkSurrogateEvaluate$|BenchmarkSurrogateSimCold$|BenchmarkCalibrate$", Tier1: true},
}

// HarnessParallelFloor is the pinned minimum speedup of the parallel
// experiment harness over the honest sequential baseline
// (BenchmarkHarnessSequential pins GABLES_PARALLEL=1). The floor is only
// enforced on runners with at least harnessMinCPU cores — below that the
// worker pool cannot express the speedup and the check logs a skip.
const HarnessParallelFloor = 1.5

// harnessMinCPU matches the 4-vCPU GitHub-hosted runner the floor was
// pinned on.
const harnessMinCPU = 4

// HarnessRatio extracts the sequential/parallel ns-per-op ratio (the
// parallel speedup) from one record's results; ok is false when either
// harness benchmark is missing from the run.
func HarnessRatio(results []Result) (ratio float64, ok bool) {
	var seq, par float64
	for _, r := range results {
		switch r.Name {
		case "BenchmarkHarnessSequential":
			seq = r.NsPerOp
		case "BenchmarkHarnessParallel":
			par = r.NsPerOp
		}
	}
	if seq <= 0 || par <= 0 {
		return 0, false
	}
	return seq / par, true
}

// CheckHarnessRatio renders the speedup line for the log and reports
// whether the floor was missed on a machine where it applies. An empty
// line means the run did not include both harness benchmarks.
func CheckHarnessRatio(results []Result, ncpu int) (line string, miss bool) {
	ratio, ok := HarnessRatio(results)
	if !ok {
		return "", false
	}
	switch {
	case ncpu < harnessMinCPU:
		return fmt.Sprintf("harness parallel speedup %.2fx (floor %.1fx not enforced: %d CPUs < %d)",
			ratio, HarnessParallelFloor, ncpu, harnessMinCPU), false
	case ratio < HarnessParallelFloor:
		return fmt.Sprintf("FLOOR MISS harness parallel speedup %.2fx < %.1fx floor",
			ratio, HarnessParallelFloor), true
	default:
		return fmt.Sprintf("harness parallel speedup %.2fx (floor %.1fx)",
			ratio, HarnessParallelFloor), false
	}
}

// SurrogateSpeedupFloor is the pinned minimum speedup of the surrogate
// backend's fitted fast path over the cold sim query it replaces
// (BenchmarkSurrogateSimCold resets the simulation cache every iteration,
// so the ratio compares against genuine measurement cost, not a cache
// hit). Unlike the harness floor this one is not CPU-gated: both sides
// are single-threaded closed-form-vs-simulation work.
const SurrogateSpeedupFloor = 100

// SurrogateRatio extracts the cold-sim/fitted ns-per-op ratio (the
// surrogate speedup) from one record's results; ok is false when either
// benchmark is missing from the run.
func SurrogateRatio(results []Result) (ratio float64, ok bool) {
	var fast, cold float64
	for _, r := range results {
		switch r.Name {
		case "BenchmarkSurrogateEvaluate":
			fast = r.NsPerOp
		case "BenchmarkSurrogateSimCold":
			cold = r.NsPerOp
		}
	}
	if fast <= 0 || cold <= 0 {
		return 0, false
	}
	return cold / fast, true
}

// CheckSurrogateRatio renders the speedup line for the log and reports
// whether the floor was missed. An empty line means the run did not
// include both surrogate benchmarks.
func CheckSurrogateRatio(results []Result) (line string, miss bool) {
	ratio, ok := SurrogateRatio(results)
	if !ok {
		return "", false
	}
	if ratio < SurrogateSpeedupFloor {
		return fmt.Sprintf("FLOOR MISS surrogate fast-path speedup %.0fx < %.0fx floor",
			ratio, float64(SurrogateSpeedupFloor)), true
	}
	return fmt.Sprintf("surrogate fast-path speedup %.0fx (floor %.0fx)",
		ratio, float64(SurrogateSpeedupFloor)), false
}

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_op"`
	BytesPerOp  float64 `json:"b_op"`
	AllocsPerOp float64 `json:"allocs_op"`
}

// Record is one run of the suite.
type Record struct {
	GitSHA     string   `json:"git_sha"`
	GoVersion  string   `json:"go_version"`
	Benchmarks []Result `json:"benchmarks"`
}

// File is the trajectory: records in run order, newest last.
type File struct {
	Records []Record `json:"records"`
}

// benchLine matches `go test -bench -benchmem` output, e.g.
//
//	BenchmarkSimKernel-8   143142   15950 ns/op   7752 B/op   110 allocs/op
//
// The -N GOMAXPROCS suffix is stripped so records compare across machines.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op)?(?:\s+([0-9.]+) allocs/op)?`)

// ParseBench extracts benchmark results from `go test -bench` output.
func ParseBench(out string) []Result {
	var results []Result
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, _ := strconv.Atoi(m[2])
		ns, _ := strconv.ParseFloat(m[3], 64)
		r := Result{Name: m[1], Iterations: iters, NsPerOp: ns}
		if m[4] != "" {
			r.BytesPerOp, _ = strconv.ParseFloat(m[4], 64)
		}
		if m[5] != "" {
			r.AllocsPerOp, _ = strconv.ParseFloat(m[5], 64)
		}
		results = append(results, r)
	}
	return results
}

// Regression is one benchmark that got slower or more allocation-hungry
// than the threshold allows.
type Regression struct {
	Name   string
	Metric string
	Old    float64
	New    float64
	Ratio  float64
}

// Compare diffs two records benchmark-by-benchmark. Benchmarks present in
// only one record are skipped: the trajectory tolerates suite growth.
// A regression is a relative increase beyond threshold in ns/op or
// allocs/op; an allocs/op increase from a sub-1 baseline is measured
// against a floor of one allocation so amortized-zero benchmarks do not
// flag on scheduling noise.
func Compare(prev, cur Record, threshold float64) []Regression {
	old := make(map[string]Result, len(prev.Benchmarks))
	for _, r := range prev.Benchmarks {
		old[r.Name] = r
	}
	var regs []Regression
	for _, r := range cur.Benchmarks {
		p, ok := old[r.Name]
		if !ok {
			continue
		}
		if p.NsPerOp > 0 {
			ratio := r.NsPerOp / p.NsPerOp
			if ratio > 1+threshold {
				regs = append(regs, Regression{r.Name, "ns/op", p.NsPerOp, r.NsPerOp, ratio})
			}
		}
		base := p.AllocsPerOp
		if base < 1 {
			base = 1
		}
		if ratio := r.AllocsPerOp / base; ratio > 1+threshold {
			regs = append(regs, Regression{r.Name, "allocs/op", p.AllocsPerOp, r.AllocsPerOp, ratio})
		}
	}
	return regs
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
		return f, fmt.Errorf("gables-bench: %s: %v", path, err)
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

// gitSHA resolves HEAD — suffixed with "-dirty" when the worktree has
// uncommitted changes, so a record is never mistaken for the commit it
// merely sits on top of — or "unknown" outside a git checkout.
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

// runSuite executes the selected targets and collects their results.
func runSuite(benchtime string, tier1Only bool, logf func(string, ...any)) ([]Result, error) {
	var all []Result
	for _, t := range suite {
		if tier1Only && !t.Tier1 {
			continue
		}
		logf("# go test -run=NONE -bench %s -benchmem -benchtime %s %s\n", t.Bench, benchtime, t.Pkg)
		cmd := exec.Command("go", "test", "-run=NONE", "-bench", t.Bench,
			"-benchmem", "-benchtime", benchtime, t.Pkg)
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = &buf
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("gables-bench: %s: %v\n%s", t.Pkg, err, buf.String())
		}
		results := ParseBench(buf.String())
		if len(results) == 0 {
			return nil, fmt.Errorf("gables-bench: %s: no benchmark results in output:\n%s", t.Pkg, buf.String())
		}
		all = append(all, results...)
	}
	return all, nil
}

func run(args []string, stdout *os.File) int {
	fs := flag.NewFlagSet("gables-bench", flag.ContinueOnError)
	out := fs.String("out", "BENCH_sim.json", "trajectory file to append to")
	benchtime := fs.String("benchtime", "200ms", "-benchtime passed to go test")
	threshold := fs.Float64("threshold", 0.25, "relative regression threshold on ns/op and allocs/op")
	check := fs.Bool("check", false, "exit 1 when a benchmark regressed vs the previous record")
	tier1 := fs.Bool("tier1", false, "run only the quick tier-1 subset (the CI perf-smoke selection)")
	dry := fs.Bool("dry", false, "measure and compare without rewriting the trajectory file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stdout, format, a...) }

	results, err := runSuite(*benchtime, *tier1, logf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cur := Record{GitSHA: gitSHA(), GoVersion: runtime.Version(), Benchmarks: results}

	traj, err := Load(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	for _, r := range results {
		logf("%-40s %14.1f ns/op %12.0f B/op %10.1f allocs/op\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}

	var regs []Regression
	if n := len(traj.Records); n > 0 {
		prev := traj.Records[n-1]
		regs = Compare(prev, cur, *threshold)
		logf("\ncompared against record %d (git %s):\n", n-1, prev.GitSHA)
		if len(regs) == 0 {
			logf("  no regressions beyond %.0f%%\n", *threshold*100)
		}
		for _, g := range regs {
			logf("  REGRESSION %s %s: %.1f -> %.1f (%.2fx)\n", g.Name, g.Metric, g.Old, g.New, g.Ratio)
		}
	} else {
		logf("\nno previous record in %s: baseline established\n", *out)
	}

	ratioLine, floorMiss := CheckHarnessRatio(results, runtime.NumCPU())
	if ratioLine != "" {
		logf("%s\n", ratioLine)
	}
	surLine, surMiss := CheckSurrogateRatio(results)
	if surLine != "" {
		logf("%s\n", surLine)
	}
	floorMiss = floorMiss || surMiss

	if !*dry {
		traj.Records = append(traj.Records, cur)
		if err := Save(*out, traj); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		logf("appended record %d to %s\n", len(traj.Records)-1, *out)
	}

	if *check && (len(regs) > 0 || floorMiss) {
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }
