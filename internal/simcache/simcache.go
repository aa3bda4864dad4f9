// Package simcache is the harness's content-addressed result cache. The
// discrete-event substrate is deterministic — a run is a pure function of
// its fingerprint (see sim.Fingerprint) — so every layer that re-executes a
// (config, kernel) pair another grid cell, experiment suite, or web request
// already computed is pure waste. The cache closes that gap three ways:
//
//   - a bounded in-memory LRU serves repeats within a process;
//   - singleflight deduplication makes concurrent requests for the same
//     key — parallel.Map workers on overlapping grids, simultaneous web
//     form submissions — block on one computation instead of N;
//   - an optional on-disk layer (Options.Dir, wired to the -cache flag and
//     GABLES_CACHE_DIR) lets reruns skip already-simulated points across
//     processes.
//
// The LRU is sharded (power-of-two shard count, per-shard mutex, shard
// chosen by a hash of the key prefix) so parallel grid workers don't
// serialize on one lock; a key always maps to one shard, which preserves
// the singleflight guarantee. Stats are merged across shards on read.
//
// Correctness contract: a key must be content-addressed — it encodes every
// input that can influence the value — and the computation must be
// deterministic, so a cached value is byte-identical to a recomputed one.
// TestRunDeterministicColdVsWarmCache (cmd/gables-repro/main_test.go)
// enforces this for the harness: cold-cache and warm-cache runs of
// gables-repro must produce identical artifacts.
//
// Errors are never cached: a failed computation is reported to the caller
// (and to every coalesced waiter) and the next request recomputes.
package simcache

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Stats is a point-in-time snapshot of a cache's counters. Semantics,
// pinned by tests: every lookup increments exactly one of Hits, DiskHits,
// Coalesced, or Misses (per Get), or Bypassed (per Bypass — a lookup the
// caller deliberately routed around the cache, e.g. a traced run).
type Stats struct {
	// Hits counts Gets served from the in-memory LRU.
	Hits int64 `json:"hits"`
	// DiskHits counts Gets served by decoding an on-disk entry.
	DiskHits int64 `json:"disk_hits"`
	// PeerHits is always zero: nothing increments it, and /stats omits
	// it. It exists only because perfbench's lookups (perfbench/layers.go)
	// reads it; the benchmark's next change deletes both (ROADMAP item 3).
	PeerHits int64 `json:"-"`
	// Misses counts Gets that ran the computation (including ones whose
	// computation failed).
	Misses int64 `json:"misses"`
	// Coalesced counts Gets that blocked on another caller's in-flight
	// computation of the same key instead of starting their own.
	Coalesced int64 `json:"coalesced"`
	// Bypassed counts lookups that skipped the cache in both directions
	// by design (reported via Bypass); they are not misses — the cache
	// was never consulted and the result was never stored.
	Bypassed int64 `json:"bypassed"`
	// Evictions counts entries dropped from the LRU to respect Capacity.
	Evictions int64 `json:"evictions"`
	// Entries is the current in-memory entry count.
	Entries int `json:"entries"`
}

// add merges another snapshot into s (Stats is a sum across shards).
func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.DiskHits += o.DiskHits
	s.Misses += o.Misses
	s.Coalesced += o.Coalesced
	s.Bypassed += o.Bypassed
	s.Evictions += o.Evictions
	s.Entries += o.Entries
}

// Options configure a Cache.
type Options struct {
	// Capacity bounds the total in-memory entry count; <= 0 uses
	// DefaultCapacity.
	Capacity int
	// Dir enables the on-disk layer in this directory (created on first
	// write). Entries are JSON files named <key>.json. Empty disables
	// the layer.
	Dir string
	// Shards sets the LRU shard count, rounded up to a power of two and
	// capped at Capacity. 0 picks automatically: one shard per 64
	// entries of capacity, at most 16 — small caches (the kind tests pin
	// exact eviction order on) stay single-sharded, grid-sized caches
	// spread contention.
	Shards int
}

// DefaultCapacity is the in-memory bound when Options.Capacity is unset:
// generous next to the harness's grids (a full gables-repro run computes
// on the order of 10³ distinct points) while keeping worst-case footprint
// in the tens of megabytes.
const DefaultCapacity = 4096

// maxAutoShards bounds the automatic shard count; contention wins flatten
// out well before lock count reaches typical grid worker counts.
const maxAutoShards = 16

// Cache is a bounded, content-addressed result cache with singleflight
// deduplication. The zero value is not usable; construct with New. All
// methods are safe for concurrent use.
type Cache[V any] struct {
	shards []*shard[V]
	mask   uint32

	dirMu sync.Mutex
	dir   string
}

// shard is one lock domain: a slice of the key space with its own LRU,
// flight table and counters.
type shard[V any] struct {
	capacity int

	mu      sync.Mutex
	entries map[string]*list.Element // key → lru element holding *entry[V]
	lru     *list.List               // front = most recently used
	flights map[string]*flight[V]
	stats   Stats
}

type entry[V any] struct {
	key string
	val V
}

// flight is one in-progress computation; waiters block on done.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// shardCount resolves Options.Shards against the capacity.
func shardCount(requested, capacity int) int {
	n := requested
	if n <= 0 {
		n = capacity / 64
		if n > maxAutoShards {
			n = maxAutoShards
		}
	}
	if n > capacity {
		n = capacity
	}
	if n < 1 {
		n = 1
	}
	// Round up to a power of two so shard selection is a mask.
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// New constructs a cache.
func New[V any](opts Options) *Cache[V] {
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := shardCount(opts.Shards, capacity)
	// Ceil-divide so the shards together hold at least Capacity.
	per := (capacity + n - 1) / n
	c := &Cache[V]{
		shards: make([]*shard[V], n),
		mask:   uint32(n - 1),
		dir:    opts.Dir,
	}
	for i := range c.shards {
		c.shards[i] = &shard[V]{
			capacity: per,
			entries:  make(map[string]*list.Element),
			lru:      list.New(),
			flights:  make(map[string]*flight[V]),
		}
	}
	return c
}

// shardFor hashes the key prefix (run fingerprints and sha-256 keys front-
// load their entropy) onto a shard with FNV-1a.
func (c *Cache[V]) shardFor(key string) *shard[V] {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	n := len(key)
	if n > 16 {
		n = 16
	}
	for i := 0; i < n; i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return c.shards[h&c.mask]
}

// Get returns the value for key, computing it with compute on a miss.
// Concurrent Gets for the same key coalesce onto one compute call; the
// others block until it finishes and share its result. A compute error is
// returned to the leader and every coalesced waiter, and nothing is
// cached. The returned value is shared with the cache: callers must treat
// it as immutable (wrap Get if a defensive copy is needed).
func (c *Cache[V]) Get(key string, compute func() (V, error)) (V, error) {
	s := c.shardFor(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.lru.MoveToFront(el)
		s.stats.Hits++
		v := el.Value.(*entry[V]).val
		s.mu.Unlock()
		return v, nil
	}
	if f, ok := s.flights[key]; ok {
		s.stats.Coalesced++
		s.mu.Unlock()
		<-f.done
		return f.val, f.err
	}
	f := &flight[V]{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()

	// Behind memory: disk, then compute. A fresh computation is written
	// to disk (when enabled).
	v, err := c.loadDisk(key)
	fromDisk := err == nil
	if !fromDisk {
		v, err = compute()
		if err == nil {
			c.storeDisk(key, v)
		}
	}

	s.mu.Lock()
	if fromDisk {
		s.stats.DiskHits++
	} else {
		s.stats.Misses++
	}
	if err == nil {
		s.insertLocked(key, v)
	}
	delete(s.flights, key)
	s.mu.Unlock()

	f.val, f.err = v, err
	close(f.done)
	return v, err
}

// Peek reports whether key is resident in memory, without touching LRU
// order or counters.
func (c *Cache[V]) Peek(key string) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// Bypass records one lookup that deliberately skipped the cache in both
// directions. Callers that route around Get by design (internal/simcache.Run
// does for probe-observed runs: a hit could not replay the event stream)
// report here so the counters still account for every lookup — bypassed
// work must not masquerade as misses.
func (c *Cache[V]) Bypass() {
	s := c.shards[0]
	s.mu.Lock()
	s.stats.Bypassed++
	s.mu.Unlock()
}

// Stats returns a snapshot of the counters, summed across shards.
func (c *Cache[V]) Stats() Stats {
	var out Stats
	for _, s := range c.shards {
		s.mu.Lock()
		snap := s.stats
		snap.Entries = len(s.entries)
		s.mu.Unlock()
		out.add(snap)
	}
	return out
}

// Reset drops every in-memory entry and zeroes the counters. In-flight
// computations are unaffected (they complete and insert into the fresh
// table). The disk layer is not touched.
func (c *Cache[V]) Reset() {
	for _, s := range c.shards {
		s.mu.Lock()
		s.entries = make(map[string]*list.Element)
		s.lru.Init()
		s.stats = Stats{}
		s.mu.Unlock()
	}
}

func (s *shard[V]) insertLocked(key string, v V) {
	if el, ok := s.entries[key]; ok {
		// A concurrent flight (e.g. after Reset) already reinserted.
		el.Value.(*entry[V]).val = v
		s.lru.MoveToFront(el)
		return
	}
	s.entries[key] = s.lru.PushFront(&entry[V]{key: key, val: v})
	for s.lru.Len() > s.capacity {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.entries, oldest.Value.(*entry[V]).key)
		s.stats.Evictions++
	}
}

// SetDir enables (or, with "", disables) the on-disk layer on a live
// cache; in-memory contents and counters are preserved.
func (c *Cache[V]) SetDir(dir string) {
	c.dirMu.Lock()
	c.dir = dir
	c.dirMu.Unlock()
}

// getDir reads the disk directory under its lock: SetDir can flip it
// on a live cache while flights are reading it.
func (c *Cache[V]) getDir() string {
	c.dirMu.Lock()
	defer c.dirMu.Unlock()
	return c.dir
}

// diskPath maps a key to its file. Keys are hex fingerprints or sha-256
// hashes (see Key), so they are always path-safe; anything else is
// rejected by load/store.
func (c *Cache[V]) diskPath(key string) (string, error) {
	dir := c.getDir()
	if dir == "" {
		return "", errDiskDisabled
	}
	if !pathSafe(key) {
		return "", fmt.Errorf("simcache: key %q is not path-safe", key)
	}
	return filepath.Join(dir, key+".json"), nil
}

var errDiskDisabled = fmt.Errorf("simcache: disk layer disabled")

// loadDisk decodes an on-disk entry. Any failure — layer disabled, file
// absent, unreadable, or undecodable (e.g. a truncated write from an
// interrupted process, or a schema change without a fingerprint bump) —
// reports an error and the caller falls back to computing.
func (c *Cache[V]) loadDisk(key string) (V, error) {
	var v V
	path, err := c.diskPath(key)
	if err != nil {
		return v, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return v, err
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return v, fmt.Errorf("simcache: corrupt entry %s: %w", path, err)
	}
	return v, nil
}

// storeDisk persists an entry atomically: write a unique temp file, then
// rename over the final name, so concurrent processes and interrupted runs
// never expose a partial entry. Disk trouble is deliberately soft — the
// cache degrades to memory-only rather than failing the run.
func (c *Cache[V]) storeDisk(key string, v V) {
	path, err := c.diskPath(key)
	if err != nil {
		return
	}
	dir := filepath.Dir(path)
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(dir, key+".tmp*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
	}
}

func pathSafe(key string) bool {
	if key == "" {
		return false
	}
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}
