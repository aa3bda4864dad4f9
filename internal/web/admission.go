package web

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
)

// Admission control: the evaluation endpoints do real work (a cold sim
// query is milliseconds of discrete-event execution), so under overload the
// server must degrade by policy, not by accident. The admission struct is
// a concurrency limiter with a bounded two-class priority queue in front:
//
//   - at most MaxInFlight evaluations run at once — counting batch
//     fan-out: a /eval/batch request's admission slot covers one
//     evaluation at a time, and every additional parallel worker it runs
//     must win its own slot non-blockingly (tryAcquire), so a batch can
//     never multiply real concurrency past the limit;
//   - excess requests wait in a per-class FIFO queue, and releases grant
//     interactive (point /eval) waiters strictly before batch
//     (/eval/batch) waiters — a human poking the form outranks a sweep;
//   - when a class's queue is full the request is shed immediately with
//     429 and a Retry-After hint, which is the load-shedding contract:
//     bounded queueing delay, never an unbounded backlog.
//
// Counter invariant, pinned by tests: every acquire increments exactly one
// of Admitted (ran immediately), Queued (waited, then ran), Shed (429), or
// Canceled (client gave up while queued).

// Request classes, in grant-priority order.
const (
	classInteractive = iota
	classBatch
	numClasses
)

// Admission limits; Options holds the per-handler configuration.
const (
	// DefaultMaxInFlight bounds concurrent evaluations. Evaluations are
	// CPU-bound, so well past GOMAXPROCS extra concurrency only adds
	// queueing inside the scheduler; 64 leaves headroom for cache-hit
	// requests that finish in microseconds.
	DefaultMaxInFlight = 64
	// DefaultQueueDepth bounds each class's wait queue.
	DefaultQueueDepth = 128
)

// Environment overrides read by Handler(); the gables-web flags take
// precedence by constructing NewHandler explicitly.
const (
	EnvMaxInFlight = "GABLES_MAX_INFLIGHT"
	EnvQueueDepth  = "GABLES_QUEUE_DEPTH"
)

// errShed reports a queue-full rejection.
var errShed = errors.New("web: overloaded: admission queue full")

// AdmissionStats snapshots the limiter's counters for /stats.
type AdmissionStats struct {
	// Admitted counts requests that acquired a slot without waiting.
	Admitted int64 `json:"admitted"`
	// Queued counts requests that waited in a queue and then ran.
	Queued int64 `json:"queued"`
	// Shed counts requests rejected with 429 because their class's
	// queue was full.
	Shed int64 `json:"shed"`
	// Canceled counts requests whose client gave up while queued.
	Canceled int64 `json:"canceled"`
	// InFlight is the current number of running evaluations (gauge).
	InFlight int `json:"in_flight"`
	// QueueDepth is the current total queued waiter count (gauge).
	QueueDepth int `json:"queue_depth"`
}

// waiter is one queued request; grant closes ready with the slot already
// transferred.
type waiter struct {
	ready   chan struct{}
	granted bool
}

// admission is the limiter. The zero value is not usable; construct with
// newAdmission. All methods are safe for concurrent use.
type admission struct {
	max, depth int
	// releaseFunc is release as a func value, built once by newAdmission
	// so that handing it to each request allocates nothing.
	releaseFunc func()

	mu       sync.Mutex
	inflight int
	queues   [numClasses][]*waiter
	admitted int64
	queued   int64
	shed     int64
	canceled int64
}

// newAdmission builds a limiter; non-positive limits use the defaults.
func newAdmission(maxInFlight, queueDepth int) *admission {
	if maxInFlight <= 0 {
		maxInFlight = DefaultMaxInFlight
	}
	if queueDepth <= 0 {
		queueDepth = DefaultQueueDepth
	}
	a := &admission{max: maxInFlight, depth: queueDepth}
	a.releaseFunc = a.release
	return a
}

// acquire claims an evaluation slot for the class, waiting in its bounded
// queue when the limiter is saturated. It returns a release func that must
// be called exactly once, or an error: errShed when the queue was full,
// the context error when the client gave up first.
func (a *admission) acquire(ctx context.Context, class int) (func(), error) {
	a.mu.Lock()
	if a.inflight < a.max {
		a.inflight++
		a.admitted++
		a.mu.Unlock()
		return a.releaseFunc, nil
	}
	if len(a.queues[class]) >= a.depth {
		a.shed++
		a.mu.Unlock()
		return nil, errShed
	}
	w := &waiter{ready: make(chan struct{})}
	a.queues[class] = append(a.queues[class], w)
	a.mu.Unlock()

	select {
	case <-w.ready:
		// The granting release counted us as Queued and transferred its
		// slot; we own it now.
		return a.releaseFunc, nil
	case <-ctx.Done():
		a.mu.Lock()
		if w.granted {
			// Lost the race: a release granted us between ctx firing and
			// the lock. We own a slot nobody will use — hand it on.
			a.mu.Unlock()
			a.release()
			return nil, ctx.Err()
		}
		// Still queued: withdraw so release never sees a dead waiter and
		// the queue-depth gauge stays honest.
		q := a.queues[class]
		for i, other := range q {
			if other == w {
				a.queues[class] = append(q[:i], q[i+1:]...)
				break
			}
		}
		a.canceled++
		a.mu.Unlock()
		return nil, ctx.Err()
	}
}

// tryAcquire claims a slot only when one is immediately free: no
// queueing, no shedding, and no outcome counter — the per-request
// Admitted/Queued/Shed/Canceled invariant counts requests, and an extra
// slot belongs to a request already counted. A batch's fan-out
// (server.fanout, whose workers evaluate, fingerprint and encode its
// items) charges each worker beyond a request's own slot through here,
// so MaxInFlight bounds real evaluation concurrency across point
// requests, batch requests, and their workers together; when nothing is
// free the batch degrades toward sequential on the slot it already holds,
// which always makes progress — holding-while-trying cannot deadlock. The
// returned release behaves exactly like acquire's (it hands the slot to
// the longest-waiting interactive-then-batch waiter before freeing it)
// and must be called exactly once.
func (a *admission) tryAcquire() (func(), bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.inflight >= a.max {
		return nil, false
	}
	a.inflight++
	return a.releaseFunc, true
}

// release returns a slot: the longest-waiting interactive request is
// granted first, then the longest-waiting batch request, and only when
// both queues are empty does the in-flight count drop.
func (a *admission) release() {
	a.mu.Lock()
	for class := 0; class < numClasses; class++ {
		if q := a.queues[class]; len(q) > 0 {
			w := q[0]
			a.queues[class] = q[1:]
			w.granted = true
			a.queued++
			close(w.ready) // slot transfers to the waiter
			a.mu.Unlock()
			return
		}
	}
	a.inflight--
	a.mu.Unlock()
}

// Stats snapshots the counters.
func (a *admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	depth := 0
	for class := 0; class < numClasses; class++ {
		depth += len(a.queues[class])
	}
	return AdmissionStats{
		Admitted:   a.admitted,
		Queued:     a.queued,
		Shed:       a.shed,
		Canceled:   a.canceled,
		InFlight:   a.inflight,
		QueueDepth: depth,
	}
}

// admit wraps an evaluation handler with the limiter. Shed requests get
// 429 with a Retry-After hint; a client that disconnects while queued gets
// nothing (the connection is gone).
func (s *server) admit(class int, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, err := s.adm.acquire(r.Context(), class)
		if err != nil {
			if errors.Is(err, errShed) {
				w.Header().Set("Retry-After", "1")
				evalError(w, http.StatusTooManyRequests, errShed)
			}
			return
		}
		defer release()
		h(w, r)
	}
}

// envLimit reads a positive-integer limit from the environment; unset,
// malformed, or non-positive values fall back to def with a warning on
// stderr (a typo'd override that silently reverts is indistinguishable
// from one that worked).
func envLimit(name string, def int) int {
	v := os.Getenv(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		fmt.Fprintf(os.Stderr, "web: ignoring %s=%q: want a positive integer\n", name, v)
		return def
	}
	return n
}
