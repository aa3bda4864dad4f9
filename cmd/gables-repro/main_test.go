package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/gables-model/gables/internal/simcache"
)

func TestRunSingleExperiment(t *testing.T) {
	dir := t.TempDir()
	if err := run(io.Discard, options{only: "fig6", dir: dir, csv: true}); err != nil {
		t.Fatalf("fig6 repro failed: %v", err)
	}
	// Four multi-roofline SVGs plus the table CSV.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	svgs, csvs := 0, 0
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".svg":
			svgs++
		case ".csv":
			csvs++
		}
	}
	if svgs != 4 {
		t.Errorf("svgs = %d, want 4 (Fig 6a–6d)", svgs)
	}
	if csvs != 1 {
		t.Errorf("csvs = %d, want 1", csvs)
	}
}

func TestRunUnknownID(t *testing.T) {
	if err := run(io.Discard, options{only: "nope"}); err == nil {
		t.Error("unknown experiment must fail")
	}
}

func TestRunNoDir(t *testing.T) {
	if err := run(io.Discard, options{only: "table2"}); err != nil {
		t.Fatalf("dir-less run failed: %v", err)
	}
}

// TestRunDeterministicAcrossPoolSizes is the acceptance criterion: the full
// harness output must be byte-identical between an experiment pool of one
// and a wide one, including every rendered artifact file. Each run starts
// from a cold simulation cache, so the wide pool computes its simulations
// concurrently instead of replaying the first run's. -j bounds only the
// experiment pool — the erb grids and usecase suites inside an experiment
// fan out at GABLES_PARALLEL or GOMAXPROCS in both runs — so neither run is
// sequential.
func TestRunDeterministicAcrossPoolSizes(t *testing.T) {
	defer simcache.ResetDefault()
	var seq, par bytes.Buffer
	seqDir, parDir := t.TempDir(), t.TempDir()
	simcache.ResetDefault()
	if err := run(&seq, options{dir: seqDir, csv: true, jobs: 1}); err != nil {
		t.Fatalf("-j 1 run failed: %v", err)
	}
	simcache.ResetDefault()
	if err := run(&par, options{dir: parDir, csv: true, jobs: 8}); err != nil {
		t.Fatalf("-j 8 run failed: %v", err)
	}
	// The temp dir name is the only legitimate difference in the "wrote"
	// lines; normalize it away before comparing.
	seqOut := strings.ReplaceAll(seq.String(), seqDir, "DIR")
	parOut := strings.ReplaceAll(par.String(), parDir, "DIR")
	if seqOut != parOut {
		t.Error("stdout differs between -j1 and -j8")
	}
	seqFiles, parFiles := readAll(t, seqDir), readAll(t, parDir)
	if len(seqFiles) == 0 {
		t.Fatal("the -j 1 run wrote no artifact files")
	}
	if len(seqFiles) != len(parFiles) {
		t.Fatalf("file count differs: %d at -j 1 vs %d at -j 8", len(seqFiles), len(parFiles))
	}
	for name, data := range seqFiles {
		if !bytes.Equal(data, parFiles[name]) {
			t.Errorf("artifact %s differs between -j1 and -j8", name)
		}
	}
}

func readAll(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestRunDeterministicColdVsWarmCache extends the determinism criterion to
// the simulation cache: a run that populates an on-disk cache and a run
// that replays entirely from it must produce byte-identical stdout and
// artifact files.
func TestRunDeterministicColdVsWarmCache(t *testing.T) {
	simcache.EnableDisk(t.TempDir())
	defer simcache.DisableDisk()
	simcache.ResetDefault()
	defer simcache.ResetDefault()

	var cold, warm bytes.Buffer
	coldDir, warmDir := t.TempDir(), t.TempDir()
	if err := run(&cold, options{dir: coldDir, csv: true, jobs: 4}); err != nil {
		t.Fatalf("cold-cache run failed: %v", err)
	}
	// Drop the memory layer so the warm run must replay from disk.
	simcache.ResetDefault()
	if err := run(&warm, options{dir: warmDir, csv: true, jobs: 4}); err != nil {
		t.Fatalf("warm-cache run failed: %v", err)
	}
	if s := simcache.DefaultStats(); s.DiskHits == 0 {
		t.Errorf("warm run had no disk hits (stats %+v) — cache not exercised", s)
	}
	coldOut := strings.ReplaceAll(cold.String(), coldDir, "DIR")
	warmOut := strings.ReplaceAll(warm.String(), warmDir, "DIR")
	if coldOut != warmOut {
		t.Error("stdout differs between cold and warm cache runs")
	}
	coldFiles, warmFiles := readAll(t, coldDir), readAll(t, warmDir)
	if len(coldFiles) == 0 || len(coldFiles) != len(warmFiles) {
		t.Fatalf("file count differs: %d cold vs %d warm", len(coldFiles), len(warmFiles))
	}
	for name, data := range coldFiles {
		if !bytes.Equal(data, warmFiles[name]) {
			t.Errorf("artifact %s differs between cold and warm cache runs", name)
		}
	}
}
