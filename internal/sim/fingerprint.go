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
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sync"

	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim/noc"
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
	b := appendRunStream(appendConfigStream(stack[:0], cfg), assignments, opt)
	sum := sha256.Sum256(b)
	return hex.AppendEncode(dst, sum[:])
}

// appendConfigStream appends the stream's config half: the version, then
// the Config in declaration order. A FingerprintPrefix hashes it once.
func appendConfigStream(b fpBuf, cfg Config) fpBuf {
	b = b.uint64(FingerprintVersion)
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
	return b.thermal(cfg.Thermal)
}

// appendRunStream appends the stream's run half: the assignments, then
// the options.
func appendRunStream(b fpBuf, assignments []Assignment, opt RunOptions) fpBuf {
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
	return b.uint64(uint64(maxEvents))
}

// FingerprintPrefix holds one Config's SHA-256 midstate: the hash state
// after the stream's config half, so a run on that Config hashes only
// its run half. It keeps a deep copy of the Config and resumes only for
// a Config that is ConfigEqual to the copy, so a later write through the
// caller's shared backing falls back to the full hash instead of
// answering with a stale key. Use it through a pointer.
type FingerprintPrefix struct {
	cfg   Config
	state []byte // the marshaled midstate; nil when the hash cannot resume
	// digests recycles resumable digests and their scratch: a digest
	// behind the hash.Hash interface escapes, so a fresh one per call
	// would cost allocations the midstate is meant to save.
	digests sync.Pool
}

// resumableHash is a hash whose state can be saved and restored, as
// sha256.New's is.
type resumableHash interface {
	hash.Hash
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// resumable is one pooled digest and the buffers its calls write into.
type resumable struct {
	h   resumableHash
	buf []byte
	sum [sha256.Size]byte
}

// NewFingerprintPrefix hashes cfg's config half once and keeps the
// midstate for AppendFingerprint.
func NewFingerprintPrefix(cfg Config) *FingerprintPrefix {
	p := &FingerprintPrefix{cfg: cloneConfig(cfg)}
	h, ok := sha256.New().(resumableHash)
	if !ok {
		return p
	}
	h.Write(appendConfigStream(nil, cfg))
	if state, err := h.MarshalBinary(); err == nil {
		p.state = state
	}
	return p
}

// AppendFingerprint appends the package-level AppendFingerprint's bytes
// for (cfg, assignments, opt) to dst. When cfg is ConfigEqual to the
// prefix's Config it hashes only the run half, resumed from the midstate,
// with no allocation once the pool is warm; otherwise, or on a nil
// prefix, it hashes the whole stream.
func (p *FingerprintPrefix) AppendFingerprint(dst []byte, cfg Config, assignments []Assignment, opt RunOptions) []byte {
	if p == nil || p.state == nil || !p.Matches(cfg) {
		return AppendFingerprint(dst, cfg, assignments, opt)
	}
	r, _ := p.digests.Get().(*resumable)
	if r == nil {
		r = &resumable{h: sha256.New().(resumableHash)}
	}
	if err := r.h.UnmarshalBinary(p.state); err != nil {
		return AppendFingerprint(dst, cfg, assignments, opt)
	}
	r.buf = appendRunStream(r.buf[:0], assignments, opt)
	r.h.Write(r.buf)
	sum := r.h.Sum(r.sum[:0])
	dst = hex.AppendEncode(dst, sum)
	p.digests.Put(r)
	return dst
}

// Matches reports whether cfg is ConfigEqual to the prefix's private copy
// of its Config: the guard under which anything computed once from that
// Config, the midstate included, still holds for cfg. A nil prefix
// matches nothing.
func (p *FingerprintPrefix) Matches(cfg Config) bool {
	return p != nil && ConfigEqual(cfg, p.cfg)
}

// ConfigEqual reports whether two configs are fingerprint-equivalent
// without hashing: it compares exactly the fields the config half of the
// stream encodes, bit-exact on floats like the encoding, so a true result
// means equal fingerprints for equal runs. It is the one structural
// identity check: the midstate guard and the surrogate's chip lookup
// both use it, and a hash of the config costs microseconds where this
// costs nanoseconds.
func ConfigEqual(a, b Config) bool {
	if a.Name != b.Name || !f64eq(a.DRAMBandwidth, b.DRAMBandwidth) || a.Host != b.Host {
		return false
	}
	if len(a.Fabrics) != len(b.Fabrics) || len(a.IPs) != len(b.IPs) {
		return false
	}
	for i, f := range a.Fabrics {
		g := b.Fabrics[i]
		if f.Name != g.Name || !f64eq(f.Bandwidth, g.Bandwidth) || f.Parent != g.Parent {
			return false
		}
	}
	for i, s := range a.IPs {
		t := b.IPs[i]
		if s.Name != t.Name || s.Fabric != t.Fabric || s.MaxInflight != t.MaxInflight ||
			!f64eq(s.ComputeRate, t.ComputeRate) ||
			!f64eq(s.LinkBandwidth, t.LinkBandwidth) ||
			!f64eq(s.WritePenalty, t.WritePenalty) ||
			!f64eq(s.CacheSize, t.CacheSize) ||
			!f64eq(s.CacheBandwidth, t.CacheBandwidth) ||
			!f64eq(s.ChunkBytes, t.ChunkBytes) ||
			!f64eq(s.CoordinationOpsPerByte, t.CoordinationOpsPerByte) ||
			!f64eq(s.MemoryLatency, t.MemoryLatency) {
			return false
		}
	}
	at, bt := a.Thermal, b.Thermal
	if (at == nil) != (bt == nil) {
		return false
	}
	if at != nil {
		if !f64eq(at.Ambient, bt.Ambient) || !f64eq(at.Resistance, bt.Resistance) ||
			!f64eq(at.Capacitance, bt.Capacitance) || !f64eq(at.IdlePower, bt.IdlePower) ||
			!f64eq(at.EnergyPerOp, bt.EnergyPerOp) || !f64eq(at.ThrottleAt, bt.ThrottleAt) ||
			!f64eq(at.ResumeAt, bt.ResumeAt) || !f64eq(at.ThrottleScale, bt.ThrottleScale) ||
			!f64eq(at.Interval, bt.Interval) {
			return false
		}
	}
	return true
}

// f64eq is bit-exact float equality — the same notion of "same config" the
// fingerprint's Float64bits encoding uses.
func f64eq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// cloneConfig deep-copies the parts of a Config reached through pointers
// and slices, so no write through the original's backing reaches it.
func cloneConfig(c Config) Config {
	c.Fabrics = append([]noc.FabricSpec(nil), c.Fabrics...)
	c.IPs = append([]IPSpec(nil), c.IPs...)
	if c.Thermal != nil {
		t := *c.Thermal
		c.Thermal = &t
	}
	return c
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
