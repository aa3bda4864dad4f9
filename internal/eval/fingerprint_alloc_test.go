//go:build !race

package eval

import (
	"testing"

	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim"
)

// TestFingerprintFromAllocs pins a resumed query fingerprint at the one
// allocation of its returned string, like eval.Fingerprint. The race
// detector makes the prefix's sync.Pool drop digests at random, so the
// check runs without it.
func TestFingerprintFromAllocs(t *testing.T) {
	cfg := sim.Snapdragon835()
	work, err := SplitWork(cfg, 4<<20, 32, kernel.ReadWrite, []Share{{IP: "GPU", Fraction: 0.375}, {IP: "DSP", Fraction: 0.125}, {IP: "CPU", Fraction: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Chip: cfg, Work: work, Trials: DefaultTrials}
	prefix := sim.NewFingerprintPrefix(cfg)
	if got := testing.AllocsPerRun(100, func() {
		if _, err := FingerprintFrom(prefix, q); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("eval.FingerprintFrom made %v allocations, want at most 1", got)
	}
}
