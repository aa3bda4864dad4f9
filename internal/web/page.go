package web

import (
	"fmt"
	"html/template"
	"net/http"
	"strconv"
	"strings"

	"github.com/gables-model/gables/internal/core"
	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/plot"
	"github.com/gables-model/gables/internal/units"
)

// The interactive pages: the paper's home page offers its model "for both
// two-IP and three-IP SoCs", and so does this package, at "/" and
// "/three". Both are one page over an N-IP parameter set; a page
// description (pages, below) says where it is served, what it says, and
// which form field sets which model input.

// pageParams are one page's model inputs, in paper units. IP[0] is the
// reference IP: its acceleration is 1, which no form field sets, and its
// work fraction is 1 − Σ of the others, so its F is not read. The fields
// are exported because the page cache keys them through encoding/json.
type pageParams struct {
	PpeakGops float64 // Ppeak, Gops/s
	BpeakGB   float64 // Bpeak, GB/s
	IPs       []ipParams
}

// ipParams are one IP's inputs.
type ipParams struct {
	A   float64 // acceleration
	BGB float64 // bandwidth, GB/s
	F   float64 // fraction of the work
	I   float64 // ops/byte
}

// quantity names the model input a form field sets.
type quantity int

const (
	ppeak quantity = iota
	bpeak
	accel     // an IP's acceleration
	bandwidth // an IP's bandwidth
	fraction  // an IP's work fraction
	intensity // an IP's ops/byte
)

// field is one form input: its query key, its label, and the input it
// sets, in IP ip for the per-IP quantities.
type field struct {
	Key, Label string
	of         quantity
	ip         int
}

// Fraction reports whether the field is a work fraction, which the form
// bounds to [0,1].
func (f field) Fraction() bool { return f.of == fraction }

// page describes one interactive page. The pages table is never written
// after init; each request parses into a copy of its defaults.
type page struct {
	Path, Title, Heading string
	Intro                template.HTML
	Width                int // the body's max-width, px
	chip                 string
	defaults             pageParams
	Hardware, Usecase    []field
}

var pages = []*page{
	{
		Path:    "/",
		Title:   "Gables interactive",
		Heading: "Gables: a Roofline model for mobile SoCs",
		Intro:   "Two-IP interactive model (Hill &amp; Reddi, HPCA 2019). Adjust and submit.",
		Width:   960,
		chip:    "interactive",
		// The paper's Figure 6b.
		defaults: pageParams{PpeakGops: 40, BpeakGB: 10, IPs: []ipParams{
			{A: 1, BGB: 6, I: 8},
			{A: 5, BGB: 15, F: 0.75, I: 0.1},
		}},
		Hardware: []field{
			{"ppeak", "Ppeak (Gops/s)", ppeak, 0},
			{"bpeak", "Bpeak (GB/s)", bpeak, 0},
			{"a", "A1 (accel)", accel, 1},
			{"b0", "B0 (GB/s)", bandwidth, 0},
			{"b1", "B1 (GB/s)", bandwidth, 1},
		},
		Usecase: []field{
			{"f", "f (work at IP[1])", fraction, 1},
			{"i0", "I0 (ops/B)", intensity, 0},
			{"i1", "I1 (ops/B)", intensity, 1},
		},
	},
	{
		Path:    "/three",
		Title:   "Gables interactive (three IPs)",
		Heading: "Gables: three-IP SoC",
		Intro:   `IP[0]'s work fraction is 1 &minus; f1 &minus; f2. <a href="/">two-IP page</a>`,
		Width:   1000,
		chip:    "interactive-3ip",
		// A CPU+GPU+DSP-flavored starting point, with accelerations and
		// bandwidths shaped like the §IV measurements.
		defaults: pageParams{PpeakGops: 7.5, BpeakGB: 30, IPs: []ipParams{
			{A: 1, BGB: 15.1, I: 8},
			{A: 46.6, BGB: 24.4, F: 0.6, I: 8},
			{A: 0.4, BGB: 5.4, F: 0.1, I: 2},
		}},
		Hardware: []field{
			{"ppeak", "Ppeak (Gops/s)", ppeak, 0},
			{"bpeak", "Bpeak (GB/s)", bpeak, 0},
			{"a1", "A1", accel, 1},
			{"a2", "A2", accel, 2},
			{"b0", "B0 (GB/s)", bandwidth, 0},
			{"b1", "B1 (GB/s)", bandwidth, 1},
			{"b2", "B2 (GB/s)", bandwidth, 2},
		},
		Usecase: []field{
			{"f1", "f1", fraction, 1},
			{"f2", "f2", fraction, 2},
			{"i0", "I0 (ops/B)", intensity, 0},
			{"i1", "I1 (ops/B)", intensity, 1},
			{"i2", "I2 (ops/B)", intensity, 2},
		},
	},
}

// ref points at the input f sets in p.
func (p *pageParams) ref(f field) *float64 {
	switch f.of {
	case ppeak:
		return &p.PpeakGops
	case bpeak:
		return &p.BpeakGB
	case accel:
		return &p.IPs[f.ip].A
	case bandwidth:
		return &p.IPs[f.ip].BGB
	case fraction:
		return &p.IPs[f.ip].F
	default:
		return &p.IPs[f.ip].I
	}
}

// Value is the input f sets, as the form shows it.
func (p pageParams) Value(f field) float64 { return *p.ref(f) }

// parse reads the page's form over a copy of its defaults. A field that
// is not a finite number keeps its default and is reported, rather than
// silently ignored: the pages degrade to defaults where the JSON
// endpoints return 400, but the acceptance rule (parseFinite) is one.
func (pg *page) parse(r *http.Request) (pageParams, []fieldError) {
	p := pg.defaults
	p.IPs = append([]ipParams(nil), p.IPs...)
	var errs []fieldError
	q := query(r.URL.RawQuery)
	for _, fields := range [][]field{pg.Hardware, pg.Usecase} {
		for _, f := range fields {
			v := q.Get(f.Key)
			if v == "" {
				continue
			}
			x, err := parseFinite(f.Key, v)
			if err != nil {
				errs = append(errs, *err.(*fieldError)) // parseFinite's errors are *fieldError
				continue
			}
			*p.ref(f) = x
		}
	}
	return p, errs
}

// validate checks ranges. The fractions IP[1..] take must be non-negative
// and sum to at most 1 within the model's FractionTolerance: a legitimate
// split like f1=0.9, f2=0.1 sums to 1.0000000000000002 in float64 and
// must not be rejected.
func (pg *page) validate(p pageParams) error {
	hw := p.PpeakGops > 0 && p.BpeakGB > 0
	sum, negative, intensities := 0.0, false, true
	for i, ip := range p.IPs {
		hw = hw && ip.A > 0 && ip.BGB > 0
		if i > 0 {
			sum += ip.F
			negative = negative || ip.F < 0
		}
		intensities = intensities && ip.I > 0
	}
	if !hw {
		return fmt.Errorf("web: hardware parameters must be positive")
	}
	if negative || sum > 1+core.FractionTolerance {
		return pg.fractionError(p)
	}
	if !intensities {
		return fmt.Errorf("web: intensities must be positive")
	}
	return nil
}

// fractionError names the page's fraction fields and what they were set to.
func (pg *page) fractionError(p pageParams) error {
	var keys, values []string
	for _, f := range pg.Usecase {
		if f.Fraction() {
			keys = append(keys, f.Key)
			values = append(values, fmt.Sprint(p.Value(f)))
		}
	}
	if len(keys) == 1 {
		return fmt.Errorf("web: %s must be in [0,1], got %s", keys[0], values[0])
	}
	return fmt.Errorf("web: fractions must be non-negative with %s <= 1, got %s",
		strings.Join(keys, "+"), strings.Join(values, " + "))
}

// evaluate validates p and runs the page's model on it.
func (pg *page) evaluate(p pageParams) (*evaluation, error) {
	if err := pg.validate(p); err != nil {
		return nil, err
	}
	return evaluateModel(p.model(pg.chip))
}

// model builds the SoC and usecase p describes. IP[0]'s fraction is what
// the others leave, subtracted in IP order; float drift can leave it a
// tiny negative number (-2.8e-17 for f1=0.9, f2=0.1), which the model's
// non-negativity check would reject, so drift within FractionTolerance is
// clamped to 0.
func (p pageParams) model(chip string) (*core.SoC, *core.Usecase) {
	s := &core.SoC{
		Name:            chip,
		Peak:            units.GopsPerSec(p.PpeakGops),
		MemoryBandwidth: units.GBPerSec(p.BpeakGB),
		IPs:             make([]core.IP, len(p.IPs)),
	}
	u := &core.Usecase{Name: "interactive", Work: make([]core.Work, len(p.IPs))}
	f0 := 1.0
	for i, ip := range p.IPs {
		s.IPs[i] = core.IP{Name: "IP[" + strconv.Itoa(i) + "]", Acceleration: ip.A, Bandwidth: units.GBPerSec(ip.BGB)}
		u.Work[i] = core.Work{Fraction: ip.F, Intensity: units.Intensity(ip.I)}
		if i > 0 {
			f0 -= ip.F
		}
	}
	if f0 < 0 && f0 >= -core.FractionTolerance {
		f0 = 0
	}
	u.Work[0].Fraction = f0
	return s, u
}

// evaluation is everything a page shows.
type evaluation struct {
	Attainable string
	Bottleneck string
	Terms      []termView
	SVG        template.HTML
	Err        string

	// FormErrors lists form inputs that could not be used (unparsable or
	// non-finite); each such field fell back to its default. They are
	// per-request presentation state: the handler sets them after the
	// cache clone, so cache-resident evaluations never carry them.
	FormErrors []fieldError
}

// termView is one row of the page's bound table.
type termView struct {
	Component string
	Bound     string
}

// evaluateModel evaluates the usecase on the SoC: the attainable
// performance, the bottleneck, each component's scaled-roofline bound,
// and the multi-roofline plot over intensities from 1/16 of the lowest
// IP intensity to 16× the highest.
func evaluateModel(s *core.SoC, u *core.Usecase) (*evaluation, error) {
	m, err := core.New(s)
	if err != nil {
		return nil, err
	}
	//lint:ignore evalboundary the interactive form renders the user's ad-hoc model verbatim (memoized in the server's page cache); /eval is the registry-backed endpoint
	res, err := m.Evaluate(u)
	if err != nil {
		return nil, err
	}
	ev := &evaluation{
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
	lo, hi := u.Work[0].Intensity, u.Work[0].Intensity
	for _, w := range u.Work[1:] {
		lo, hi = min(lo, w.Intensity), max(hi, w.Intensity)
	}
	ch, err := plot.GablesChart(m, u, lo/16, hi*16, 65)
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

// pageCap bounds one server's page cache.
const pageCap = 512

// evaluatePage is pg.evaluate through the server's page cache. Pages are
// pure functions of their parameters, and real traffic repeats them (the
// default form, the back button, many users poking the same example).
// Concurrent identical requests coalesce onto one evaluation and render;
// errors (invalid parameters) are never cached. The "/v1" in the key's
// scope is the page schema version: bump it whenever pageParams or the
// rendering changes meaning. The chip name keeps the pages apart.
func (s *server) evaluatePage(pg *page, p pageParams) (*evaluation, error) {
	key, err := eval.Key("web-page/v1", pg.chip, p)
	if err != nil {
		return pg.evaluate(p) // unkeyable (non-finite) params bypass the cache
	}
	ev, err := s.pages.Get(key, func() (*evaluation, error) { return pg.evaluate(p) })
	if err != nil {
		return nil, err
	}
	// Each request gets a private copy, so cache-resident pages stay
	// immutable.
	cp := *ev
	cp.Terms = append([]termView(nil), ev.Terms...)
	return &cp, nil
}

var pageTemplate = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html><head><title>{{.Page.Title}}</title>
<style>
 body { font-family: sans-serif; margin: 2em; max-width: {{.Page.Width}}px; }
 fieldset { display: inline-block; vertical-align: top; margin-right: 1em; }
 label { display: block; margin: 0.3em 0; }
 input[type=number] { width: 6em; }
 .result { font-size: 1.2em; margin: 1em 0; }
 table { border-collapse: collapse; } td, th { border: 1px solid #ccc; padding: 0.3em 0.7em; }
 .err { color: #b00; }
</style></head><body>
<h1>{{.Page.Heading}}</h1>
<p>{{.Page.Intro}}</p>
<form method="GET" action="{{.Page.Path}}">
 <fieldset><legend>Hardware</legend>
{{range .Page.Hardware}}  <label>{{.Label}} <input type="number" step="any" name="{{.Key}}" value="{{$.Params.Value .}}"></label>
{{end}} </fieldset>
 <fieldset><legend>Usecase</legend>
{{range .Page.Usecase}}  <label>{{.Label}} <input type="number" step="any"{{if .Fraction}} min="0" max="1"{{end}} name="{{.Key}}" value="{{$.Params.Value .}}"></label>
{{end}} </fieldset>
 <p><input type="submit" value="Evaluate"></p>
</form>
{{range .Ev.FormErrors}}<p class="err">input {{.Field}}={{.Value}} rejected ({{.Reason}}); using the default instead</p>{{end}}
{{if .Ev.Err}}<p class="err">{{.Ev.Err}}</p>{{else}}
<div class="result">P<sub>attainable</sub> = <b>{{.Ev.Attainable}}</b> &mdash; limited by {{.Ev.Bottleneck}}</div>
<table><tr><th>component</th><th>scaled-roofline bound</th></tr>
{{range .Ev.Terms}}<tr><td>{{.Component}}</td><td>{{.Bound}}</td></tr>{{end}}
</table>
{{.Ev.SVG}}
{{end}}
</body></html>`))

// pageHandler serves pg.
func (s *server) pageHandler(pg *page) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != pg.Path {
			http.NotFound(w, r)
			return
		}
		p, ferrs := pg.parse(r)
		ev, err := s.evaluatePage(pg, p)
		if err != nil {
			ev = &evaluation{Err: err.Error()}
		}
		ev.FormErrors = ferrs // after the cache clone: never cached
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		view := struct {
			Page   *page
			Params pageParams
			Ev     *evaluation
		}{pg, p, ev}
		if err := pageTemplate.Execute(w, view); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}
