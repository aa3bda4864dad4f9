// Package web serves the interactive Gables visualization: the counterpart
// of the interactive tool the paper publishes on its home page. A single
// page presents the two-IP model's hardware and software parameters as
// form inputs and renders the §III-C multi-roofline plot with drop lines,
// the per-component bounds, and the attainable performance, live on every
// change.
package web

import (
	"errors"
	"fmt"
	"html/template"
	"net/http"
	"os"

	"github.com/gables-model/gables/internal/core"
	"github.com/gables-model/gables/internal/plot"
	"github.com/gables-model/gables/internal/simcache"
	"github.com/gables-model/gables/internal/units"
)

// Params are the two-IP model inputs, in paper units.
type Params struct {
	PpeakGops float64 // Ppeak, Gops/s
	BpeakGB   float64 // Bpeak, GB/s
	A         float64 // A1
	B0GB      float64 // B0, GB/s
	B1GB      float64 // B1, GB/s
	F         float64 // fraction of work at IP[1]
	I0        float64 // ops/byte at IP[0]
	I1        float64 // ops/byte at IP[1]
}

// DefaultParams returns the paper's Figure 6b configuration.
func DefaultParams() Params {
	return Params{PpeakGops: 40, BpeakGB: 10, A: 5, B0GB: 6, B1GB: 15, F: 0.75, I0: 8, I1: 0.1}
}

// Validate checks ranges.
func (p Params) Validate() error {
	if p.PpeakGops <= 0 || p.BpeakGB <= 0 || p.A <= 0 || p.B0GB <= 0 || p.B1GB <= 0 {
		return fmt.Errorf("web: hardware parameters must be positive")
	}
	if p.F < 0 || p.F > 1 {
		return fmt.Errorf("web: f must be in [0,1], got %v", p.F)
	}
	if p.I0 <= 0 || p.I1 <= 0 {
		return fmt.Errorf("web: intensities must be positive")
	}
	return nil
}

// Evaluation is everything the page shows.
type Evaluation struct {
	Params     Params
	Attainable string
	Bottleneck string
	Terms      []termView
	SVG        template.HTML
	Err        string

	// FormErrors lists form inputs that could not be used (unparsable or
	// non-finite); each such field fell back to its default. They are
	// per-request presentation state: handlers set them after the cache
	// clone, so cache-resident evaluations never carry them.
	FormErrors []FormError
}

// FormError describes one rejected form input.
type FormError struct {
	Field  string // form input name
	Value  string // what was submitted
	Reason string // why it was rejected
}

// parseFloatField parses one form value into dst through the shared
// validated parser (parse.go), recording a FormError — and leaving dst's
// default in place — when the value is not a finite number. The HTML pages
// degrade to defaults where the JSON endpoints return 400, but the
// acceptance rules are one implementation.
func parseFloatField(q query, name string, dst *float64, errs *[]FormError) {
	v := q.Get(name)
	if v == "" {
		return
	}
	f, err := parseFinite(name, v)
	if err != nil {
		var fe *fieldError
		if errors.As(err, &fe) {
			*errs = append(*errs, FormError{Field: fe.Field, Value: fe.Value, Reason: fe.Reason})
		} else {
			*errs = append(*errs, FormError{Field: name, Value: v, Reason: err.Error()})
		}
		return
	}
	*dst = f
}

type termView struct {
	Component string
	Bound     string
}

// Evaluate runs the model for the parameters.
func Evaluate(p Params) (*Evaluation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s, err := core.TwoIP("interactive", units.GopsPerSec(p.PpeakGops), units.GBPerSec(p.BpeakGB),
		p.A, units.GBPerSec(p.B0GB), units.GBPerSec(p.B1GB))
	if err != nil {
		return nil, err
	}
	m, err := core.New(s)
	if err != nil {
		return nil, err
	}
	u, err := core.TwoIPUsecase("interactive", p.F, units.Intensity(p.I0), units.Intensity(p.I1))
	if err != nil {
		return nil, err
	}
	//lint:ignore evalboundary the interactive form renders the user's ad-hoc model verbatim (memoized upstream via eval.Key); /eval is the registry-backed endpoint
	res, err := m.Evaluate(u)
	if err != nil {
		return nil, err
	}
	ev := &Evaluation{
		Params:     p,
		Attainable: res.Attainable.String(),
		Bottleneck: res.Bottleneck.String(),
	}
	terms, _, err := m.PerformanceForm(u)
	if err != nil {
		return nil, err
	}
	for _, t := range terms {
		ev.Terms = append(ev.Terms, termView{Component: t.Component.String(), Bound: t.Perf.String()})
	}
	lo := units.Intensity(min(p.I0, p.I1) / 16)
	hi := units.Intensity(max(p.I0, p.I1) * 16)
	ch, err := plot.GablesChart(m, u, lo, hi, 65)
	if err != nil {
		return nil, err
	}
	svg, err := ch.SVG(860, 480)
	if err != nil {
		return nil, err
	}
	ev.SVG = template.HTML(svg) // SVG is generated by us; titles are escaped by plot
	return ev, nil
}

var page = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html><head><title>Gables interactive</title>
<style>
 body { font-family: sans-serif; margin: 2em; max-width: 960px; }
 fieldset { display: inline-block; vertical-align: top; margin-right: 1em; }
 label { display: block; margin: 0.3em 0; }
 input[type=number] { width: 6em; }
 .result { font-size: 1.2em; margin: 1em 0; }
 table { border-collapse: collapse; } td, th { border: 1px solid #ccc; padding: 0.3em 0.7em; }
 .err { color: #b00; }
</style></head><body>
<h1>Gables: a Roofline model for mobile SoCs</h1>
<p>Two-IP interactive model (Hill &amp; Reddi, HPCA 2019). Adjust and submit.</p>
<form method="GET" action="/">
 <fieldset><legend>Hardware</legend>
  <label>Ppeak (Gops/s) <input type="number" step="any" name="ppeak" value="{{.Params.PpeakGops}}"></label>
  <label>Bpeak (GB/s) <input type="number" step="any" name="bpeak" value="{{.Params.BpeakGB}}"></label>
  <label>A1 (accel) <input type="number" step="any" name="a" value="{{.Params.A}}"></label>
  <label>B0 (GB/s) <input type="number" step="any" name="b0" value="{{.Params.B0GB}}"></label>
  <label>B1 (GB/s) <input type="number" step="any" name="b1" value="{{.Params.B1GB}}"></label>
 </fieldset>
 <fieldset><legend>Usecase</legend>
  <label>f (work at IP[1]) <input type="number" step="any" min="0" max="1" name="f" value="{{.Params.F}}"></label>
  <label>I0 (ops/B) <input type="number" step="any" name="i0" value="{{.Params.I0}}"></label>
  <label>I1 (ops/B) <input type="number" step="any" name="i1" value="{{.Params.I1}}"></label>
 </fieldset>
 <p><input type="submit" value="Evaluate"></p>
</form>
{{range .FormErrors}}<p class="err">input {{.Field}}={{.Value}} rejected ({{.Reason}}); using the default instead</p>{{end}}
{{if .Err}}<p class="err">{{.Err}}</p>{{else}}
<div class="result">P<sub>attainable</sub> = <b>{{.Attainable}}</b> &mdash; limited by {{.Bottleneck}}</div>
<table><tr><th>component</th><th>scaled-roofline bound</th></tr>
{{range .Terms}}<tr><td>{{.Component}}</td><td>{{.Bound}}</td></tr>{{end}}
</table>
{{.SVG}}
{{end}}
</body></html>`))

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
	// ServePeer mounts the simulation cache's peer-serving surface at
	// /simcache/ so other replicas can deduplicate sim work against this
	// one. Off by default: the surface accepts cache pushes (PUT), so it
	// must be an explicit operator decision — gables-web enables it via
	// -serve-peer, or implicitly when -peer-cache/GABLES_PEER_CACHE
	// configures this replica as part of a peer mesh.
	ServePeer bool
	// PeerToken, when non-empty, requires Authorization: Bearer <token>
	// on every /simcache/ request (and is what this replica attaches to
	// its own outgoing peer traffic via simcache.EnablePeerToken). The
	// unauthenticated surface assumes a trusted network; see
	// internal/simcache/peer.go.
	PeerToken string
}

// server binds the handlers to one admission limiter, its options and
// its chip table.
type server struct {
	opts  Options
	adm   *admission
	chips *chipPresets
}

// EnvOptions returns Options populated from the environment
// (GABLES_MAX_INFLIGHT, GABLES_QUEUE_DEPTH, GABLES_PEER_CACHE,
// GABLES_PEER_TOKEN) or the defaults; gables-web's flags override
// individual fields on top of it. Peer serving follows peer membership: a
// replica configured to consult a peer serves its own entries back, so an
// env-only mesh deduplicates in both directions.
func EnvOptions() Options {
	return Options{
		MaxInFlight: envLimit(EnvMaxInFlight, DefaultMaxInFlight),
		QueueDepth:  envLimit(EnvQueueDepth, DefaultQueueDepth),
		ServePeer:   os.Getenv(simcache.EnvPeer) != "",
		PeerToken:   os.Getenv(simcache.EnvPeerToken),
	}
}

// Handler returns the HTTP handler with environment-configured limits.
func Handler() http.Handler { return NewHandler(EnvOptions()) }

// NewHandler returns the HTTP handler serving the interactive pages (the
// two-IP model at "/", the three-IP model at "/three"), the JSON
// evaluation API (/eval, /eval/batch) behind the admission limiter, and
// the counters at /stats. The simulation cache's peer-serving surface at
// /simcache/ (so replicas can deduplicate sim work fleet-wide; see
// internal/simcache/peer.go) is mounted only when Options.ServePeer is
// set — it accepts cache pushes, so it is never exposed by accident — and
// enforces Options.PeerToken when one is configured.
func NewHandler(opts Options) http.Handler { return newServer(opts).routes() }

// newServer builds one server: its admission limiter and its chip table.
func newServer(opts Options) *server {
	return &server{opts: opts, adm: newAdmission(opts.MaxInFlight, opts.QueueDepth), chips: newChipPresets()}
}

// routes mounts the server's handlers.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/three", threeHandler)
	mux.HandleFunc("/eval", s.admit(classInteractive, s.evalHandler))
	mux.HandleFunc("/eval/batch", s.admit(classBatch, s.batchHandler))
	mux.HandleFunc("/stats", s.statsHandler)
	if s.opts.ServePeer {
		mux.Handle(simcache.PeerPathPrefix, simcache.DefaultPeerHandler(s.opts.PeerToken))
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		p, ferrs := parseParams(r)
		ev, err := EvaluateCached(p)
		if err != nil {
			ev = &Evaluation{Params: p, Err: err.Error()}
		}
		ev.FormErrors = ferrs // after the cache clone: never cached
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		if err := page.Execute(w, ev); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}

// parseParams reads the two-IP form, reporting each malformed field rather
// than silently keeping its default.
func parseParams(r *http.Request) (Params, []FormError) {
	p := DefaultParams()
	var errs []FormError
	q := query(r.URL.RawQuery)
	parseFloatField(q, "ppeak", &p.PpeakGops, &errs)
	parseFloatField(q, "bpeak", &p.BpeakGB, &errs)
	parseFloatField(q, "a", &p.A, &errs)
	parseFloatField(q, "b0", &p.B0GB, &errs)
	parseFloatField(q, "b1", &p.B1GB, &errs)
	parseFloatField(q, "f", &p.F, &errs)
	parseFloatField(q, "i0", &p.I0, &errs)
	parseFloatField(q, "i1", &p.I1, &errs)
	return p, errs
}
