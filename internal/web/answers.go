package web

import (
	"bytes"
	"math"
	"sync"

	"github.com/gables-model/gables/internal/eval"
)

// The /eval answer cache: each server keeps the response bodies of the
// GET /eval questions it has answered, so a repeated question costs one
// query read, one map lookup and one Write. A body is a pure function of
// its key: the key names the evaluator instance and every input of the
// query, and the Evaluator contract (DESIGN.md §9) gives equal queries
// bitwise-equal Outcomes. Only 200 answers are stored; a question that
// fails (400, 422, 500, a canceled request) is asked again next time.

// answerCap bounds one server's answer cache: at 0.8–1 KiB per answer,
// about 1 MiB.
const answerCap = 1024

// answerKey identifies one /eval answer. It holds the evaluator instance,
// not its name: eval.Register replaces instances, and a re-registered
// backend must never be served the old instance's bytes. Evaluators are
// compared as map keys, so a registered backend's type must be
// comparable (every backend in the tree is a pointer or an empty struct).
type answerKey struct {
	ev                 eval.Evaluator
	preset             *eval.Preset
	f, dsp             uint64 // math.Float64bits
	fpw, words, trials int
	serialized         bool
}

// key is the request's answer-cache key.
func (req *evalRequest) key() answerKey {
	s := req.spec
	return answerKey{
		ev:         req.ev,
		preset:     req.preset,
		f:          math.Float64bits(s.F),
		dsp:        math.Float64bits(s.DSP),
		fpw:        s.FPW,
		words:      s.Words,
		trials:     s.Trials,
		serialized: s.Serialized,
	}
}

// answerCache is one server's bounded map of /eval response bodies. Once
// full, each new answer evicts the oldest one stored. Safe for concurrent
// use; stored bodies are never written after put.
type answerCache struct {
	mu     sync.Mutex
	bodies map[answerKey][]byte
	keys   []answerKey // in storing order, a ring once full
	next   int         // the ring's oldest key once full
	stats  answerStats
}

// answerStats is the answer cache's /stats block.
type answerStats struct {
	// Hits and Misses count lookups; a miss whose question then failed
	// counts too.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts answers dropped to make room.
	Evictions uint64 `json:"evictions"`
	// Entries is the number of answers stored.
	Entries int `json:"entries"`
}

func newAnswerCache() *answerCache {
	return &answerCache{bodies: map[answerKey][]byte{}}
}

// get returns the stored body for key.
func (c *answerCache) get(key answerKey) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	body, ok := c.bodies[key]
	if ok {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	return body, ok
}

// put stores a copy of body, a 200 answer to key. A key stored meanwhile
// by a concurrent miss keeps its body: both are the same bytes.
func (c *answerCache) put(key answerKey, body []byte) {
	body = bytes.Clone(body)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.bodies[key]; ok {
		return
	}
	if len(c.keys) < answerCap {
		c.keys = append(c.keys, key)
	} else {
		delete(c.bodies, c.keys[c.next])
		c.keys[c.next] = key
		c.next = (c.next + 1) % answerCap
		c.stats.Evictions++
	}
	c.bodies[key] = body
}

// Stats snapshots the cache's counters.
func (c *answerCache) Stats() answerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.bodies)
	return s
}
