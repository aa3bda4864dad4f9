package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestRunCalibrate drives the -calibrate entry point end to end: two fits
// print identical bytes, and nothing names an artifact file.
func TestRunCalibrate(t *testing.T) {
	var out, again bytes.Buffer
	if err := runCalibrate(&out, "835"); err != nil {
		t.Fatalf("calibrate failed: %v", err)
	}
	for _, want := range []string{"surrogate calibration for", "Bpeak", "CPU", "efficiency table"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("calibrate output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "artifact") {
		t.Errorf("calibrate output names an artifact:\n%s", out.String())
	}
	if err := runCalibrate(&again, "835"); err != nil {
		t.Fatalf("re-calibrate failed: %v", err)
	}
	if out.String() != again.String() {
		t.Errorf("two fits print differently:\nfirst:  %s\nsecond: %s", out.String(), again.String())
	}
	if err := runCalibrate(io.Discard, "999"); err == nil {
		t.Error("unknown chip must fail")
	}
}
