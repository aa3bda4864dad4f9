package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/gables-model/gables/internal/eval"
)

func TestRunDSPOnly(t *testing.T) {
	if err := run("835", "DSP", false, false, ""); err != nil {
		t.Fatalf("DSP roofline failed: %v", err)
	}
}

func TestRunWithDirAndMixing(t *testing.T) {
	dir := t.TempDir()
	if err := run("821", "CPU", false, false, dir); err != nil {
		t.Fatalf("821 CPU with dir failed: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "cpu_roofline.svg")); err != nil {
		t.Errorf("roofline SVG not written: %v", err)
	}
}

func TestRunNative(t *testing.T) {
	// Only the native Algorithm 1 pass: measure the host briefly.
	if err := run("835", "", false, true, ""); err != nil {
		t.Fatalf("native run failed: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("999", "CPU", false, false, ""); err == nil {
		t.Error("unknown chip must fail")
	}
	if err := run("835", "GhostIP", false, false, ""); err == nil {
		t.Error("unknown IP must fail")
	}
}

func TestRunValidation(t *testing.T) {
	if err := runValidation("835"); err != nil {
		t.Fatalf("validation failed: %v", err)
	}
}

// TestRunValidationRefined covers the second chip: the validation grid
// simulates every cell, so the 821 run is the fully refined table, and an
// unknown chip fails before any simulation.
func TestRunValidationRefined(t *testing.T) {
	if err := runValidation("821"); err != nil {
		t.Fatalf("821 validation failed: %v", err)
	}
	if err := runValidation("999"); err == nil {
		t.Error("unknown chip must fail")
	}
}

// TestSelectBackend is the flag-parse-time gate: every registered backend
// name (surrogate included) is accepted, anything else fails immediately
// with the allowed set.
func TestSelectBackend(t *testing.T) {
	defer func() {
		if err := eval.SetDefault("sim"); err != nil {
			t.Fatal(err)
		}
	}()
	valid := append([]string{""}, eval.Names()...)
	for _, name := range valid {
		if err := selectBackend(name); err != nil {
			t.Errorf("selectBackend(%q) = %v, want nil", name, err)
		}
	}
	for _, name := range []string{"bogus", "SIM", "simulator"} {
		err := selectBackend(name)
		if err == nil {
			t.Errorf("selectBackend(%q) accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), "allowed:") || !strings.Contains(err.Error(), "surrogate") {
			t.Errorf("selectBackend(%q) error %q does not list the allowed set", name, err)
		}
	}
}

// TestRunCalibrate drives the -calibrate entry point end to end: fit,
// print, persist, and re-load from the persisted artifact.
func TestRunCalibrate(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := runCalibrate(&out, "835", dir); err != nil {
		t.Fatalf("calibrate failed: %v", err)
	}
	for _, want := range []string{"surrogate calibration for", "Bpeak", "CPU", "efficiency table", "artifact: "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("calibrate output missing %q:\n%s", want, out.String())
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("artifact dir entries = %v, err %v, want exactly one artifact", entries, err)
	}
	// Second run loads the artifact instead of re-fitting and prints the
	// same parameters.
	var again bytes.Buffer
	if err := runCalibrate(&again, "835", dir); err != nil {
		t.Fatalf("re-calibrate failed: %v", err)
	}
	if out.String() != again.String() {
		t.Errorf("loaded calibration prints differently:\nfit:  %s\nload: %s", out.String(), again.String())
	}
	if err := runCalibrate(io.Discard, "999", dir); err == nil {
		t.Error("unknown chip must fail")
	}
}
