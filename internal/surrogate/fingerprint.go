package surrogate

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"github.com/gables-model/gables/internal/sim"
)

// Spec is what a calibration is a pure function of: the chip configuration
// and the effective (defaulted) sweep plan. Fingerprint canonicalizes it
// into the artifact's content address, so a config or plan change
// invalidates persisted calibrations instead of silently reusing them.
type Spec struct {
	// Chip is the simulated chip the calibration measured.
	//
	//fp:delegate encoded wholesale by sim.Fingerprint (empty assignment list); sim's own //fp:lock tracks its shape
	Chip sim.Config
	// Plan is the effective sweep plan (after withDefaults).
	Plan Plan
}

// FingerprintVersion versions the calibration fingerprint encoding AND the
// fitting procedure: bump it when Plan changes shape, the encoding changes,
// or the fit itself changes (new least-squares weighting, different bucket
// semantics...), so stale artifacts miss and re-fit instead of answering
// from an older model. The lock below is maintained by the fpfields
// analyzer (`gables-lint -fix` refreshes it after a deliberate shape change
// has bumped this constant).
//
//fp:lock v1 5cf5ea61e2fc27d2
const FingerprintVersion = 1

// Fingerprint returns the stable hex content address of a calibration:
// equal fingerprints mean an identical chip was swept under an identical
// plan by an identical fitting procedure. The chip is delegated to
// sim.Fingerprint (with an empty assignment list), so sim-level semantic
// bumps invalidate calibrations too.
//
//fp:encoder
func Fingerprint(s Spec) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(v string) {
		u64(uint64(len(v)))
		h.Write([]byte(v))
	}
	u64(FingerprintVersion)
	str(sim.Fingerprint(s.Chip, nil, sim.RunOptions{}))

	// Plan, declaration order; slices count-prefixed.
	p := s.Plan
	u64(uint64(len(p.IPs)))
	for _, ip := range p.IPs {
		str(ip)
	}
	u64(uint64(len(p.SweepFlopsPerWord)))
	for _, fpw := range p.SweepFlopsPerWord {
		u64(uint64(fpw))
	}
	u64(uint64(len(p.SplitFlopsPerWord)))
	for _, fpw := range p.SplitFlopsPerWord {
		u64(uint64(fpw))
	}
	u64(uint64(len(p.Fractions)))
	for _, f := range p.Fractions {
		u64(math.Float64bits(f))
	}
	u64(uint64(p.Words))
	u64(uint64(p.Trials))
	u64(uint64(p.Pattern))
	return hex.EncodeToString(h.Sum(nil))
}
