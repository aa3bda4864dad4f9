//go:build !race

package sim

import "testing"

// TestFingerprintPrefixAllocs pins the resumed fingerprint at zero
// allocations into a buffer with room once the digest pool is warm. The
// race detector makes sync.Pool drop items at random, so the check runs
// without it.
func TestFingerprintPrefixAllocs(t *testing.T) {
	cfg, as, opt := fpBase()
	p := NewFingerprintPrefix(cfg)
	dst := make([]byte, 0, FingerprintLen)
	if allocs := testing.AllocsPerRun(100, func() { p.AppendFingerprint(dst, cfg, as, opt) }); allocs != 0 {
		t.Errorf("resumed fingerprint allocates %v times, want 0", allocs)
	}
}
