// Content-addressed fingerprints for simulation runs.
//
// A run of the discrete-event substrate is a pure function of
// (Config, assignments, RunOptions): the engine is seeded from nothing and
// every event is deterministic. Fingerprint canonicalizes that triple into
// a fixed-size key so the harness can reuse results across grid cells,
// experiment suites, processes (via the on-disk cache layer), and web
// requests. internal/simcache keys its cache with it.
//
// Canonicalization rules:
//
//   - every field is written explicitly, in struct declaration order —
//     never via reflection or map iteration, so the byte stream is stable
//     across runs and Go versions;
//   - floats are written as their IEEE-754 bit patterns, so any two
//     configs that compare == produce the same key and any bitwise
//     difference produces a different one (no formatting round-trips);
//   - strings are length-prefixed and slices count-prefixed, so
//     concatenation ambiguities ("ab","c" vs "a","bc") cannot collide;
//   - display-only labels that cannot affect simulation results —
//     Kernel.Name is the only one — are excluded, so differently labeled
//     but physically identical kernels share one cache entry;
//   - RunOptions.Probe is excluded for the same reason: probes are
//     observe-only, so a traced and an untraced run produce bitwise
//     identical results. Cache layers must nevertheless not answer a
//     traced run from cache — a hit cannot replay the event stream —
//     which internal/simcache.Run enforces by bypassing the cache when a
//     probe is attached;
//   - RunOptions.MaxEvents is normalized (0 → DefaultMaxEvents) because
//     both spellings run the same schedule.
//
// FingerprintVersion is hashed in first. Bump it whenever the simulated
// semantics of an existing field change, a field is added or removed on
// Config/ip.Config/noc.FabricSpec/thermal.Config/kernel.Kernel/RunOptions,
// or the encoding itself changes: stale on-disk cache entries then miss
// instead of serving results from an older model.
package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim/thermal"
)

// Kernel.Name is a display label: differently labeled but physically
// identical kernels must share one cache entry (see the package comment).
//
//fp:skip kernel.Kernel.Name display label only; excluded so identically shaped kernels share a cache entry

// FingerprintVersion versions the fingerprint encoding and the simulated
// semantics it captures. See the package comment for when to bump it.
// The lock below is maintained by the fpfields analyzer: it digests the
// encoded structs' shapes, and `gables-lint -fix` refreshes it after a
// deliberate shape change has bumped this constant.
//
//fp:lock v1 2d9cd03840bf0576
const FingerprintVersion = 1

// FingerprintLen is the length of a fingerprint: the hex of a SHA-256 sum.
const FingerprintLen = 2 * sha256.Size

// Fingerprint returns a stable hex key identifying the result of
// (*System).Run for this configuration, assignment list, and options.
// Two calls agree if and only if they describe the same simulated run
// under the current FingerprintVersion.
func Fingerprint(cfg Config, assignments []Assignment, opt RunOptions) string {
	var out [FingerprintLen]byte
	return string(AppendFingerprint(out[:0], cfg, assignments, opt))
}

// AppendFingerprint appends Fingerprint's FingerprintLen hex bytes to dst
// and returns the extended slice; it allocates nothing when dst has room.
//
//fp:encoder
func AppendFingerprint(dst []byte, cfg Config, assignments []Assignment, opt RunOptions) []byte {
	// The canonical stream is built in one buffer (the presets' streams
	// fit the stack array) and hashed in one call.
	var stack [1024]byte
	b := fpBuf(stack[:0])
	b = b.uint64(FingerprintVersion)

	// Config, declaration order.
	b = b.str(cfg.Name)
	b = b.f64(cfg.DRAMBandwidth)
	b = b.uint64(uint64(len(cfg.Fabrics)))
	for _, f := range cfg.Fabrics {
		b = b.str(f.Name)
		b = b.f64(f.Bandwidth)
		b = b.str(f.Parent)
	}
	b = b.uint64(uint64(len(cfg.IPs)))
	for _, spec := range cfg.IPs {
		b = b.str(spec.Name)
		b = b.f64(spec.ComputeRate)
		b = b.f64(spec.LinkBandwidth)
		b = b.f64(spec.WritePenalty)
		b = b.f64(spec.CacheSize)
		b = b.f64(spec.CacheBandwidth)
		b = b.f64(spec.ChunkBytes)
		b = b.uint64(uint64(spec.MaxInflight))
		b = b.f64(spec.CoordinationOpsPerByte)
		b = b.f64(spec.MemoryLatency)
		b = b.str(spec.Fabric)
	}
	b = b.str(cfg.Host)
	b = b.thermal(cfg.Thermal)

	// Assignments, in order: order is semantically meaningful (results
	// come back assignment-ordered and ties in the engine break by
	// schedule order).
	b = b.uint64(uint64(len(assignments)))
	for _, a := range assignments {
		b = b.str(a.IP)
		// Kernel.Name is a display label only; excluded by design.
		b = b.f64(float64(a.Kernel.WorkingSet))
		b = b.uint64(uint64(a.Kernel.Trials))
		b = b.uint64(uint64(a.Kernel.FlopsPerWord))
		b = b.uint64(uint64(a.Kernel.Pattern))
	}

	// Options. Probe is excluded by design (observe-only, no effect on
	// the result — see the package comment).
	b = b.bool(opt.Coordination)
	b = b.bool(opt.Thermal)
	maxEvents := opt.MaxEvents
	if maxEvents == 0 {
		maxEvents = DefaultMaxEvents
	}
	b = b.uint64(uint64(maxEvents))

	sum := sha256.Sum256(b)
	return hex.AppendEncode(dst, sum[:])
}

// FingerprintAssignment is a convenience for the common single-assignment
// run shape the sweep harnesses use.
func FingerprintAssignment(cfg Config, ip string, k kernel.Kernel, opt RunOptions) string {
	return Fingerprint(cfg, []Assignment{{IP: ip, Kernel: k}}, opt)
}

// fpBuf is the canonical stream being built; each helper appends one
// primitive and returns the grown buffer.
type fpBuf []byte

func (b fpBuf) uint64(v uint64) fpBuf { return binary.LittleEndian.AppendUint64(b, v) }

func (b fpBuf) f64(v float64) fpBuf { return b.uint64(math.Float64bits(v)) }

func (b fpBuf) bool(v bool) fpBuf {
	if v {
		return b.uint64(1)
	}
	return b.uint64(0)
}

func (b fpBuf) str(s string) fpBuf { return append(b.uint64(uint64(len(s))), s...) }

func (b fpBuf) thermal(c *thermal.Config) fpBuf {
	if c == nil {
		return b.bool(false)
	}
	b = b.bool(true)
	b = b.f64(c.Ambient)
	b = b.f64(c.Resistance)
	b = b.f64(c.Capacitance)
	b = b.f64(c.IdlePower)
	b = b.f64(c.EnergyPerOp)
	b = b.f64(c.ThrottleAt)
	b = b.f64(c.ResumeAt)
	b = b.f64(c.ThrottleScale)
	return b.f64(c.Interval)
}
