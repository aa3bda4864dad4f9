// Package web serves the interactive Gables visualization: the counterpart
// of the interactive tool the paper publishes on its home page. One page,
// served for two IPs at "/" and for three at "/three", presents the
// model's hardware and software parameters as form inputs and renders the
// §III-C multi-roofline plot with drop lines, the per-component bounds,
// and the attainable performance, live on every change.
package web

import (
	"encoding/json"
	"net/http"

	"github.com/gables-model/gables/internal/sim/trace"
	"github.com/gables-model/gables/internal/simcache"
	"github.com/gables-model/gables/internal/surrogate"
)

// Options configure a handler's serving policy.
type Options struct {
	// Backend names the registered evaluator that answers /eval queries
	// and /eval/batch items that name none; "" means "sim".
	Backend string
	// MaxInFlight bounds concurrent /eval + /eval/batch evaluations;
	// <= 0 uses DefaultMaxInFlight.
	MaxInFlight int
	// QueueDepth bounds each admission class's wait queue; <= 0 uses
	// DefaultQueueDepth.
	QueueDepth int
	// BatchLimit bounds the item count of one /eval/batch request;
	// <= 0 uses DefaultBatchLimit.
	BatchLimit int
	// BatchWorkers bounds each per-request fan-out of the batch
	// endpoint, whose workers evaluate the items outside a slab and
	// fingerprint and encode every item; <= 0 uses the
	// parallel.Workers default. Fan-out workers
	// beyond a request's own admission slot are additionally charged
	// against MaxInFlight (see admission.go), so this is a per-request
	// ceiling, not a grant.
	BatchWorkers int
}

// server binds the handlers to one admission limiter, its options, its
// chip table, its /eval answer cache and its page cache.
type server struct {
	opts    Options
	adm     *admission
	chips   *chipPresets
	answers *answerCache
	pages   *simcache.Cache[*evaluation]
}

// EnvOptions returns Options populated from the environment
// (GABLES_MAX_INFLIGHT, GABLES_QUEUE_DEPTH) or the defaults; gables-web's
// flags override individual fields on top of it.
func EnvOptions() Options {
	return Options{
		MaxInFlight: envLimit(EnvMaxInFlight, DefaultMaxInFlight),
		QueueDepth:  envLimit(EnvQueueDepth, DefaultQueueDepth),
	}
}

// Handler returns the HTTP handler with environment-configured limits.
func Handler() http.Handler { return NewHandler(EnvOptions()) }

// NewHandler returns the HTTP handler serving the interactive pages (the
// two-IP model at "/", the three-IP model at "/three"), the JSON
// evaluation API (/eval, /eval/batch) behind the admission limiter, and
// the counters at /stats.
func NewHandler(opts Options) http.Handler { return newServer(opts).routes() }

// newServer builds one server: its admission limiter, its chip table and
// its empty answer and page caches.
func newServer(opts Options) *server {
	return &server{
		opts:    opts,
		adm:     newAdmission(opts.MaxInFlight, opts.QueueDepth),
		chips:   newChipPresets(),
		answers: newAnswerCache(),
		pages:   simcache.New[*evaluation](simcache.Options{Capacity: pageCap}),
	}
}

// routes mounts the server's handlers.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	for _, pg := range pages {
		mux.HandleFunc(pg.Path, s.pageHandler(pg))
	}
	mux.HandleFunc("/eval", s.admit(classInteractive, s.evalHandler))
	mux.HandleFunc("/eval/batch", s.admit(classBatch, s.batchHandler))
	mux.HandleFunc("/stats", s.statsHandler)
	return mux
}

// statsHandler serves the cache, tracing, surrogate-backend, admission and
// /eval answer-cache counters as JSON at /stats. web_eval is this server's
// page cache. The surrogate section reports the default backend's
// calibrations (fit parameters, residual summary) and its fast-answer vs
// sim-fallback routing counts, one per evaluation: a /eval answer served
// from this server's answer cache reaches no backend. The admission
// section is the overload picture (in-flight and queue-depth gauges,
// admitted/queued/shed/canceled counters — exactly one per evaluation
// request); eval_answers is this server's /eval answer cache.
func (s *server) statsHandler(w http.ResponseWriter, r *http.Request) {
	snapshot := struct {
		Web       simcache.Stats    `json:"web_eval"`
		Sim       simcache.Stats    `json:"sim_runs"`
		Trace     trace.GlobalStats `json:"trace"`
		Surrogate surrogate.Stats   `json:"surrogate"`
		Admission AdmissionStats    `json:"admission"`
		Answers   answerStats       `json:"eval_answers"`
	}{Web: s.pages.Stats(), Sim: simcache.DefaultStats(), Trace: trace.Stats(), Surrogate: surrogate.DefaultStats(),
		Admission: s.adm.Stats(), Answers: s.answers.Stats()}
	setContentType(w, jsonTypeHeader)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snapshot); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
