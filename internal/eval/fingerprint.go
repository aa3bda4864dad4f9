package eval

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"github.com/gables-model/gables/internal/sim"
	"github.com/gables-model/gables/internal/simcache"
)

// FingerprintVersion versions the query fingerprint encoding. Bump it when
// Query gains a field that affects answers or when the encoding changes;
// sim-level semantic changes are already covered by sim.FingerprintVersion,
// which the delegated inner fingerprint hashes in. The lock below is
// maintained by the fpfields analyzer (`gables-lint -fix` refreshes it
// after a deliberate shape change has bumped this constant).
//
//fp:lock v1 154adf1d61f5a6e2
const FingerprintVersion = 1

// Fingerprint returns a stable hex key identifying the query's answer:
// equal fingerprints mean both backends would be asked bitwise-identical
// questions. It extends sim.Fingerprint — the query's (Config,
// assignments, RunOptions) triple, exactly as the sim backend realizes it
// up to the display-only kernel labels, is fingerprinted and hashed
// together with the eval-level semantics the triple cannot express (the
// serialized-execution flag).
//
//fp:encoder
func Fingerprint(q Query) (string, error) { return FingerprintFrom(nil, q) }

// FingerprintFrom returns Fingerprint(q), hashing the inner run
// fingerprint's chip half from p's midstate when q.Chip is still
// sim.ConfigEqual to p's chip, and in full otherwise or when p is nil.
func FingerprintFrom(p *sim.FingerprintPrefix, q Query) (string, error) {
	if err := q.Validate(); err != nil {
		return "", err
	}
	// One pass with every intermediate on the stack (the presets' IP
	// counts fit the assignment array); the returned string is the only
	// allocation.
	var asStack [8]sim.Assignment
	as := q.appendAssignments(asStack[:0])
	// One buffer, hashed once: version, the serialized flag as one byte,
	// then the length-prefixed inner run fingerprint.
	var stack [128]byte
	b := binary.LittleEndian.AppendUint64(stack[:0], FingerprintVersion)
	if q.Serialized {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.LittleEndian.AppendUint64(b, sim.FingerprintLen)
	b = p.AppendFingerprint(b, q.Chip, as, q.runOptions())
	sum := sha256.Sum256(b)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:]), nil
}

// Key builds a content-addressed cache key under the eval namespace: the
// one key-derivation scheme for every evaluation-layer cache (the
// usecase-analysis cache, the web page cache). scope
// must be a versioned label like "web-two-ip/v1"; bump its version when
// the keyed value's meaning changes.
func Key(scope string, parts ...any) (string, error) {
	if scope == "" {
		return "", fmt.Errorf("eval: key needs a versioned scope label")
	}
	all := append([]any{"gables-eval", scope}, parts...)
	return simcache.Key(all...)
}
