//go:build !race

package eval

import (
	"testing"

	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim"
)

// TestPresetFingerprintAllocs pins a fingerprint resumed from a preset's
// midstate at the one allocation of its returned string, like a full
// eval.Fingerprint. The race detector makes the midstate's sync.Pool drop
// digests at random, so the check runs without it.
func TestPresetFingerprintAllocs(t *testing.T) {
	q := NewPreset(sim.Snapdragon835()).Query()
	work, err := SplitWork(q.Chip, 4<<20, 32, kernel.ReadWrite, []Share{{IP: "GPU", Fraction: 0.375}, {IP: "DSP", Fraction: 0.125}, {IP: "CPU", Fraction: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	q.Work, q.Trials = work, DefaultTrials
	if got := testing.AllocsPerRun(100, func() {
		if _, err := Fingerprint(q); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("eval.Fingerprint on a preset query made %v allocations, want at most 1", got)
	}
}
