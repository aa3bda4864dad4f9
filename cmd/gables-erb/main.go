// Command gables-erb runs the empirical-roofline harness on the simulated
// SoC (the repository's stand-in for the paper's Snapdragon silicon): it
// sweeps the Algorithm 1 micro-benchmark over operational intensities,
// fits and prints each IP's pessimistic roofline, and optionally runs the
// §IV-C mixing analysis or the host-native kernel.
//
// Sweep cells are memoized through internal/simcache; -cache (or
// GABLES_CACHE_DIR) persists them on disk across invocations, and -v
// prints the cache counters to stderr.
//
// -trace FILE records every sweep cell's simulation as a Chrome
// trace-event JSON file (Perfetto-loadable) and -metrics prints a
// plain-text utilization summary to stderr; both are observe-only but
// bypass the simulation cache.
//
// -calibrate fits the surrogate backend's calibration for the selected
// chip and prints the fitted roofline parameters and the efficiency-table
// residuals. The fit is deterministic, so two runs print identical bytes;
// its sweeps go through the simulation cache like every other cell.
//
// Usage:
//
//	gables-erb [-chip 835|821] [-ip CPU,GPU,DSP] [-mixing] [-calibrate] [-native] [-cache dir] [-trace file] [-metrics] [-v] [-dir out]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/gables-model/gables/internal/erb"
	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/plot"
	"github.com/gables-model/gables/internal/report"
	"github.com/gables-model/gables/internal/sim"
	"github.com/gables-model/gables/internal/sim/trace"
	"github.com/gables-model/gables/internal/simcache"
	"github.com/gables-model/gables/internal/surrogate"
)

func main() {
	chip := flag.String("chip", "835", "simulated chip: 835 or 821")
	ips := flag.String("ip", "CPU,GPU,DSP", "comma-separated IPs to measure")
	mixing := flag.Bool("mixing", false, "also run the §IV-C CPU+GPU mixing analysis")
	native := flag.Bool("native", false, "also run Algorithm 1 natively on this host")
	validate := flag.Bool("validate", false, "also cross-validate the analytic model against the simulator")
	dir := flag.String("dir", "", "write roofline SVGs into this directory")
	cacheDir := flag.String("cache", "", "persist simulation results in this directory (default $"+simcache.EnvDir+")")
	traceFile := flag.String("trace", "", "write a Chrome trace-event/Perfetto JSON trace of every simulation run to this file")
	metrics := flag.Bool("metrics", false, "print a metrics summary of the traced simulation runs to stderr")
	verbose := flag.Bool("v", false, "print cache statistics to stderr after the run")
	calibrate := flag.Bool("calibrate", false, "fit the surrogate calibration for -chip and print the fitted parameters")
	flag.Parse()

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
	var err error
	if *calibrate {
		err = runCalibrate(os.Stdout, *chip)
	} else {
		err = run(*chip, *ips, *mixing, *native, *dir)
		if err == nil && *validate {
			err = runValidation(*chip)
		}
	}
	if session != nil && err == nil {
		err = writeTraceArtifacts(session, *traceFile, *metrics)
	}
	if *verbose {
		fmt.Fprintln(os.Stderr, simcache.FormatStats("sim-cache", simcache.DefaultStats()))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gables-erb:", err)
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

// chipConfig resolves the -chip flag to a simulated chip preset.
func chipConfig(chip string) (sim.Config, error) {
	switch chip {
	case "835":
		return sim.Snapdragon835(), nil
	case "821":
		return sim.Snapdragon821(), nil
	default:
		return sim.Config{}, fmt.Errorf("unknown chip %q (want 835 or 821)", chip)
	}
}

// runCalibrate fits the surrogate calibration for the chip and prints the
// fitted roofline parameters and residual summary — the human-readable face
// of the fit the surrogate backend answers from.
func runCalibrate(w io.Writer, chip string) error {
	cfg, err := chipConfig(chip)
	if err != nil {
		return err
	}
	cal, err := surrogate.New(surrogate.Options{}).Calibration(context.Background(), cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "surrogate calibration for %s:\n", cal.Chip)
	fmt.Fprintf(w, "  Bpeak: %.4g GB/s\n", cal.Bpeak/1e9)
	tbl := report.NewTable("fitted rooflines", "IP", "peak GFLOPS/s", "link GB/s", "fit residual")
	for _, ip := range cal.IPs {
		tbl.AddRow(ip.Name, ip.Peak/1e9, ip.Bandwidth/1e9, fmt.Sprintf("%.1f%%", 100*ip.Residual))
	}
	if err := tbl.WriteText(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "efficiency table: %d buckets, residual mean %.1f%%, max %.1f%%\n",
		len(cal.Table), 100*cal.ResidualMean, 100*cal.ResidualMax)
	return nil
}

// runValidation prints the model-vs-simulator grid (the paper's "correct
// shape and reasonable relative error" bar).
func runValidation(chip string) error {
	cfg, err := chipConfig(chip)
	if err != nil {
		return err
	}
	sys, err := sim.New(cfg)
	if err != nil {
		return err
	}
	res, err := erb.ValidateModel(sys, erb.ValidationOptions{CPU: "CPU", Accel: "GPU"})
	if err != nil {
		return err
	}
	tbl := report.NewTable("model vs simulator (GFLOPS/s)", "f", "I (ops/B)", "predicted", "measured", "rel err")
	for _, c := range res.Cells {
		tbl.AddRow(c.F, float64(c.FlopsPerWord)/8, c.Predicted/1e9, c.Measured/1e9,
			fmt.Sprintf("%.1f%%", 100*c.RelError))
	}
	if err := tbl.WriteText(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("shape consistent: %v; mean error %.1f%%, max %.1f%%\n",
		res.ShapeConsistent, 100*res.MeanRelError, 100*res.MaxRelError)
	return nil
}

func run(chip, ips string, mixing, native bool, dir string) error {
	cfg, err := chipConfig(chip)
	if err != nil {
		return err
	}
	sys, err := sim.New(cfg)
	if err != nil {
		return err
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}

	patterns := map[string]kernel.Pattern{"GPU": kernel.StreamCopy}
	for _, name := range strings.Split(ips, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		p := kernel.ReadWrite
		if pp, ok := patterns[name]; ok {
			p = pp
		}
		pts, fit, err := erb.MeasureRoofline(sys, name, erb.SweepOptions{Pattern: p})
		if err != nil {
			return err
		}
		fmt.Printf("%s roofline (%s kernel): peak %s, bandwidth %s, ridge %.3g ops/B\n",
			name, p, fit.Peak, fit.Bandwidth, float64(fit.RidgePoint()))
		tbl := report.NewTable("", "intensity (flops/B)", "GFLOPS/s", "GB/s")
		for _, pt := range pts {
			tbl.AddRow(float64(pt.Intensity), pt.Attainable.Gops(),
				float64(pt.Attainable)/float64(pt.Intensity)/1e9)
		}
		if err := tbl.WriteText(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if dir != "" {
			ch, err := plot.RooflineChart(fit, 0.01, 1000, 65)
			if err != nil {
				return err
			}
			ch.Series = append(ch.Series, plot.FitPointsSeries("measured", pts))
			svg, err := ch.SVG(900, 560)
			if err != nil {
				return err
			}
			path := filepath.Join(dir, strings.ToLower(name)+"_roofline.svg")
			if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
		}
	}

	if mixing {
		res, err := erb.Mixing(sys, erb.MixingOptions{CPU: "CPU", Accel: "GPU"})
		if err != nil {
			return err
		}
		fmt.Printf("mixing analysis (baseline %.4g GFLOPS/s):\n", res.BaselineRate/1e9)
		tbl := report.NewTable("", "f", "I=1", "I=4", "I=16", "I=64", "I=256", "I=1024")
		fpws := []int{8, 32, 128, 512, 2048, 8192}
		base := res.Line(8)
		for i := range base {
			row := []any{base[i].F}
			for _, fpw := range fpws {
				row = append(row, res.Line(fpw)[i].Normalized)
			}
			tbl.AddRow(row...)
		}
		if err := tbl.WriteText(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	if native {
		fmt.Println("Algorithm 1 on this host (read+write, 16 MiB, 3 trials):")
		tbl := report.NewTable("", "flops/word", "GFLOPS/s")
		for _, fpw := range kernel.PowersOfTwo(8) {
			res, err := kernel.RunNative(kernel.Kernel{
				Name: "host", WorkingSet: 16 << 20, Trials: 3,
				FlopsPerWord: fpw, Pattern: kernel.ReadWrite,
			})
			if err != nil {
				return err
			}
			tbl.AddRow(fpw, res.Rate.Gops())
		}
		if err := tbl.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
