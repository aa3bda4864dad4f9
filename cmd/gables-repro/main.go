// Command gables-repro regenerates every table and figure of the Gables
// paper's evaluation: it runs the experiment registry, prints the same
// rows/series the paper reports, writes each figure as an SVG, and emits a
// paper-vs-measured summary (the source of EXPERIMENTS.md).
//
// Experiments run concurrently on a bounded worker pool (-j, else
// GABLES_PARALLEL, else GOMAXPROCS) through experiments.RunAll; their
// files are then rendered and everything is printed in registry order, so
// the output is byte-identical whatever the pool size.
//
// Simulation runs are memoized through internal/simcache; -cache (or
// GABLES_CACHE_DIR) adds a persistent on-disk layer so repeated harness
// runs replay from disk, and -v prints the cache counters to stderr
// (stderr, so cold and warm stdout stay byte-identical).
//
// -trace FILE records every simulation run as a Chrome trace-event JSON
// file (load it in Perfetto or chrome://tracing), and -metrics prints a
// plain-text utilization summary to stderr. Both attach observe-only
// probes: results are bitwise identical, but traced runs bypass the
// simulation cache, so expect cold-run timings.
//
// Usage:
//
//	gables-repro [-only id] [-dir out] [-j n] [-cache dir] [-trace file] [-metrics] [-v] [-list]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/gables-model/gables/internal/experiments"
	"github.com/gables-model/gables/internal/parallel"
	"github.com/gables-model/gables/internal/sim/trace"
	"github.com/gables-model/gables/internal/simcache"
)

func main() {
	only := flag.String("only", "", "run a single experiment id (see -list)")
	dir := flag.String("dir", "", "write figure SVGs into this directory")
	csv := flag.Bool("csv", false, "also write each table as CSV into -dir")
	list := flag.Bool("list", false, "list experiment ids and exit")
	jobs := flag.Int("j", 0, "experiment pool size (0 = $"+parallel.EnvVar+" or GOMAXPROCS); the grids and suites inside an experiment always use that default, so -j 1 is not sequential")
	cacheDir := flag.String("cache", "", "persist simulation results in this directory (default $"+simcache.EnvDir+")")
	traceFile := flag.String("trace", "", "write a Chrome trace-event/Perfetto JSON trace of every simulation run to this file")
	metrics := flag.Bool("metrics", false, "print a metrics summary of the traced simulation runs to stderr")
	verbose := flag.Bool("v", false, "print cache statistics to stderr after the run")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *cacheDir != "" {
		simcache.EnableDisk(*cacheDir)
	} else {
		simcache.EnableDiskFromEnv()
	}
	var session *trace.Session
	if *traceFile != "" || *metrics {
		session = trace.NewSession()
		simcache.SetProbeFactory(session.NewRun)
	}
	err := run(os.Stdout, options{only: *only, dir: *dir, csv: *csv, jobs: *jobs})
	if session != nil && err == nil {
		err = writeTraceArtifacts(session, *traceFile, *metrics)
	}
	if *verbose {
		fmt.Fprintln(os.Stderr, simcache.FormatStats("sim-cache", simcache.DefaultStats()))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gables-repro:", err)
		os.Exit(1)
	}
}

// writeTraceArtifacts exports the session's trace file and/or metrics
// summary. The summary goes to stderr so traced and untraced stdout stay
// byte-identical.
func writeTraceArtifacts(session *trace.Session, traceFile string, metrics bool) error {
	if traceFile != "" {
		if err := session.WriteChromeFile(traceFile); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote trace of %d simulation runs to %s\n", session.Runs(), traceFile)
	}
	if metrics {
		return session.WriteSummary(os.Stderr)
	}
	return nil
}

// options collects run's knobs (the flag set minus -list and the
// process-wide cache/stats flags, which main applies itself).
type options struct {
	only string
	dir  string
	csv  bool
	jobs int
}

// renderedFile is one artifact output file, rendered in memory before
// anything is printed and written to disk during the ordered print phase.
type renderedFile struct {
	name string
	data string
}

func run(w io.Writer, o options) error {
	var ids []string
	if o.only != "" {
		ids = []string{o.only}
	}
	if o.dir != "" {
		if err := os.MkdirAll(o.dir, 0o755); err != nil {
			return err
		}
	}
	arts, err := experiments.RunAll(context.Background(), o.jobs, ids)
	if err != nil {
		return err
	}

	// Render every file first, so a render error fails the run before
	// any output.
	files := make([][]renderedFile, len(arts))
	if o.dir != "" {
		for i, art := range arts {
			if files[i], err = render(art, o.csv); err != nil {
				return err
			}
		}
	}

	// Print reports and write files in registry order.
	failures := 0
	var summary []string
	for i, art := range arts {
		fmt.Fprintf(w, "==== %s: %s ====\n\n", art.ID, art.Title)
		for _, tbl := range art.Tables {
			if err := tbl.WriteText(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		for _, n := range art.Notes {
			fmt.Fprintf(w, "note: %s\n", n)
		}
		for _, c := range art.Checks {
			status := "OK "
			if !c.Match {
				status = "FAIL"
				failures++
			}
			line := fmt.Sprintf("[%s] %s — paper: %s; measured: %s", status, c.Metric, c.Paper, c.Measured)
			fmt.Fprintln(w, line)
			summary = append(summary, fmt.Sprintf("%-8s %s", art.ID, line))
		}
		for _, f := range files[i] {
			path := filepath.Join(o.dir, f.name)
			if err := os.WriteFile(path, []byte(f.data), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n", path)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "==== paper-vs-measured summary ====")
	fmt.Fprintln(w, strings.Join(summary, "\n"))
	if failures > 0 {
		return fmt.Errorf("%d checks failed", failures)
	}
	fmt.Fprintf(w, "\nall %d checks passed across %d experiments\n", len(summary), len(arts))
	return nil
}

// render returns an artifact's files in the order run writes them: each
// table as CSV (with -csv), then its charts and heatmaps as SVG.
func render(art *experiments.Artifact, csv bool) ([]renderedFile, error) {
	var files []renderedFile
	if csv {
		for ti, tbl := range art.Tables {
			files = append(files, renderedFile{name: fmt.Sprintf("%s_table%d.csv", art.ID, ti), data: tbl.CSV()})
		}
	}
	for _, name := range sortedKeys(art.Charts) {
		svg, err := art.Charts[name].SVG(900, 560)
		if err != nil {
			return nil, fmt.Errorf("%s: chart %s: %w", art.ID, name, err)
		}
		files = append(files, renderedFile{name: name + ".svg", data: svg})
	}
	for _, name := range sortedKeys(art.Heatmaps) {
		svg, err := art.Heatmaps[name].SVG(900, 420)
		if err != nil {
			return nil, fmt.Errorf("%s: heatmap %s: %w", art.ID, name, err)
		}
		files = append(files, renderedFile{name: name + ".svg", data: svg})
	}
	return files, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
