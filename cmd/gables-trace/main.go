// Command gables-trace validates Chrome trace-event JSON files produced by
// the -trace flags of gables-repro and gables-erb (or by anything else that
// writes the format): it checks the structural invariants Perfetto and
// chrome://tracing rely on — a non-empty traceEvents array, name/ph/pid/tid
// on every event, finite non-negative timestamps, durations on complete
// events, arguments on counters, balanced begin/end nesting per track —
// and prints a one-line summary per file. CI runs it over a traced smoke
// run so a malformed exporter fails the build rather than the first person
// to open a trace.
//
// Usage:
//
//	gables-trace file.json [file2.json ...]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/gables-model/gables/internal/sim/trace"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: gables-trace file.json [file2.json ...]")
		flag.PrintDefaults()
	}
	quiet := flag.Bool("q", false, "suppress per-file summaries; exit status only")
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(run(flag.Args(), *quiet, os.Stdout, os.Stderr))
}

// run validates each file and returns the process exit code: 0 when every
// file passes, 1 otherwise.
func run(paths []string, quiet bool, stdout, stderr io.Writer) int {
	failed := 0
	for _, path := range paths {
		stats, err := trace.ValidateFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "gables-trace: %s: %v\n", path, err)
			failed++
			continue
		}
		if !quiet {
			fmt.Fprintf(stdout, "%s: ok — %d events (%d samples) across %d processes, %d tracks\n",
				path, stats.Events, stats.Samples, stats.Processes, stats.Tracks)
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}
