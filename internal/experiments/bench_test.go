package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/gables-model/gables/internal/parallel"
	"github.com/gables-model/gables/internal/simcache"
)

// The harness benchmarks compare the whole experiment registry run
// sequentially against the bounded worker pool. On a multi-core machine
// the parallel run should win by harnessParallelFloor, which
// TestHarnessParallelFloor enforces; on one core the two are equivalent
// by the determinism contract.
//
// The sequential baseline pins GABLES_PARALLEL=1 so the experiments'
// *inner* grids run sequentially too: with the env unset, a one-worker
// harness still saturated every core through nested parallel.Map calls,
// and the two benchmarks measured the same machine-wide throughput. The
// parallel run clears the variable so nested pools keep their default
// width — exactly the configuration a user gets running the harness.
//
// The simulation cache is reset before every run so each one measures a
// cold in-process harness run (with the intra-run dedup the cache
// legitimately provides); warm-cache performance is measured separately by
// internal/simcache's grid benchmarks.
func benchRunAll(b *testing.B, workers int, env string) {
	b.Setenv(parallel.EnvVar, env)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runAllCold(b, workers)
	}
}

func runAllCold(tb testing.TB, workers int) {
	simcache.ResetDefault()
	arts, err := RunAll(context.Background(), workers, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if len(arts) != len(IDs()) {
		tb.Fatalf("got %d artifacts, want %d", len(arts), len(IDs()))
	}
}

func BenchmarkHarnessSequential(b *testing.B) { benchRunAll(b, 1, "1") }
func BenchmarkHarnessParallel(b *testing.B)   { benchRunAll(b, 0, "") }

// harnessParallelFloor is the pinned minimum speedup of the parallel
// harness over the sequential baseline. It is enforced only with at least
// harnessMinCPU cores, the 4-vCPU runner it was pinned on: below that the
// worker pool cannot express the speedup, and the ratio is only logged.
const (
	harnessParallelFloor = 1.5
	harnessMinCPU        = 4
	harnessRounds        = 5 // odd, so the median is one round's ratio
)

// checkHarnessFloor renders the speedup line for the log and reports
// whether the floor was missed on a machine where it applies.
func checkHarnessFloor(ratio float64, ncpu int) (line string, miss bool) {
	switch {
	case ncpu < harnessMinCPU:
		return fmt.Sprintf("harness parallel speedup %.2fx (floor %.1fx not enforced: %d CPUs < %d)",
			ratio, harnessParallelFloor, ncpu, harnessMinCPU), false
	case ratio < harnessParallelFloor:
		return fmt.Sprintf("harness parallel speedup %.2fx < %.1fx floor",
			ratio, harnessParallelFloor), true
	default:
		return fmt.Sprintf("harness parallel speedup %.2fx (floor %.1fx)",
			ratio, harnessParallelFloor), false
	}
}

// TestHarnessParallelFloor checks the floor's CPU gate on fixed ratios,
// then times benchRunAll's two configurations and floors their ratio on
// this machine. It floors the median ratio of harnessRounds interleaved
// rounds: go test runs other packages on the same cores meanwhile, and
// the median shrugs off a disturbed round where the best of a few would
// keep the luckiest, upward-biased one. The floor was pinned without the
// race detector, whose overhead it does not account for.
func TestHarnessParallelFloor(t *testing.T) {
	if line, miss := checkHarnessFloor(2.0, 8); miss || line == "" {
		t.Errorf("2.0x on 8 CPUs: line=%q miss=%v, want logged pass", line, miss)
	}
	if line, miss := checkHarnessFloor(1.1, 8); !miss {
		t.Errorf("1.1x on 8 CPUs must miss the %vx floor (line=%q)", harnessParallelFloor, line)
	}
	if line, miss := checkHarnessFloor(1.0, 1); miss || line == "" {
		t.Errorf("1.0x on 1 CPU: line=%q miss=%v, want logged skip", line, miss)
	}

	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("the floor is pinned without the race detector")
	}
	timed := func(workers int, env string) time.Duration {
		t.Setenv(parallel.EnvVar, env)
		start := time.Now()
		runAllCold(t, workers)
		return time.Since(start)
	}
	defer simcache.ResetDefault()
	// An untimed run pays the one-time setup that would otherwise land on
	// the first sequential run and inflate its ratio.
	runAllCold(t, 0)
	ratios := make([]float64, harnessRounds)
	for round := range ratios {
		seq := timed(1, "1")
		par := timed(0, "")
		ratios[round] = float64(seq) / float64(par)
	}
	sort.Float64s(ratios)
	line, miss := checkHarnessFloor(ratios[harnessRounds/2], runtime.NumCPU())
	t.Log(line)
	if miss {
		t.Error(line)
	}
}

func TestRunAllMatchesSequential(t *testing.T) {
	seq, err := RunAll(context.Background(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunAll(context.Background(), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("artifact counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].ID != par[i].ID {
			t.Errorf("artifact %d: id %q (sequential) vs %q (parallel)", i, seq[i].ID, par[i].ID)
		}
		if len(seq[i].Checks) != len(par[i].Checks) {
			t.Errorf("%s: check counts differ", seq[i].ID)
			continue
		}
		for j := range seq[i].Checks {
			if seq[i].Checks[j] != par[i].Checks[j] {
				t.Errorf("%s: check %d differs between pool sizes:\nseq: %+v\npar: %+v",
					seq[i].ID, j, seq[i].Checks[j], par[i].Checks[j])
			}
		}
	}
}

func TestRunAllUnknownID(t *testing.T) {
	if _, err := RunAll(context.Background(), 4, []string{"fig6", "definitely-not-real"}); err == nil {
		t.Fatal("unknown id must fail the whole run")
	}
}
