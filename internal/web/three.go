package web

import (
	"fmt"
	"html/template"
	"net/http"

	"github.com/gables-model/gables/internal/core"
	"github.com/gables-model/gables/internal/plot"
	"github.com/gables-model/gables/internal/units"
)

// The paper's home page offers interactive visualizations "for both two-IP
// and three-IP SoCs"; this file is the three-IP page, served at /three.

// ThreeParams are the three-IP model inputs, in paper units. IP[0]'s work
// fraction is 1−F1−F2.
type ThreeParams struct {
	PpeakGops  float64
	BpeakGB    float64
	A1, A2     float64
	B0, B1, B2 float64 // GB/s
	F1, F2     float64
	I0, I1, I2 float64 // ops/byte
}

// DefaultThreeParams returns a CPU+GPU+DSP-flavored starting point
// (accelerations and bandwidths shaped like the §IV measurements).
func DefaultThreeParams() ThreeParams {
	return ThreeParams{
		PpeakGops: 7.5, BpeakGB: 30,
		A1: 46.6, A2: 0.4,
		B0: 15.1, B1: 24.4, B2: 5.4,
		F1: 0.6, F2: 0.1,
		I0: 8, I1: 8, I2: 2,
	}
}

// Validate checks ranges. The f1+f2 bound is checked within the model's
// FractionTolerance: a legitimate split like f1=0.9, f2=0.1 sums to
// 1.0000000000000002 in float64 and must not be rejected.
func (p ThreeParams) Validate() error {
	if p.PpeakGops <= 0 || p.BpeakGB <= 0 || p.A1 <= 0 || p.A2 <= 0 ||
		p.B0 <= 0 || p.B1 <= 0 || p.B2 <= 0 {
		return fmt.Errorf("web: hardware parameters must be positive")
	}
	if p.F1 < 0 || p.F2 < 0 || p.F1+p.F2 > 1+core.FractionTolerance {
		return fmt.Errorf("web: fractions must be non-negative with f1+f2 <= 1, got %v + %v", p.F1, p.F2)
	}
	if p.I0 <= 0 || p.I1 <= 0 || p.I2 <= 0 {
		return fmt.Errorf("web: intensities must be positive")
	}
	return nil
}

// EvaluateThree runs the three-IP model.
func EvaluateThree(p ThreeParams) (*Evaluation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &core.SoC{
		Name:            "interactive-3ip",
		Peak:            units.GopsPerSec(p.PpeakGops),
		MemoryBandwidth: units.GBPerSec(p.BpeakGB),
		IPs: []core.IP{
			{Name: "IP[0]", Acceleration: 1, Bandwidth: units.GBPerSec(p.B0)},
			{Name: "IP[1]", Acceleration: p.A1, Bandwidth: units.GBPerSec(p.B1)},
			{Name: "IP[2]", Acceleration: p.A2, Bandwidth: units.GBPerSec(p.B2)},
		},
	}
	m, err := core.New(s)
	if err != nil {
		return nil, err
	}
	// The residual fraction 1-f1-f2 can reconstruct to a tiny negative
	// number (e.g. -2.8e-17 for f1=0.9, f2=0.1), which the model's
	// non-negativity check would reject; clamp drift within tolerance.
	f0 := 1 - p.F1 - p.F2
	if f0 < 0 && f0 >= -core.FractionTolerance {
		f0 = 0
	}
	u := &core.Usecase{
		Name: "interactive",
		Work: []core.Work{
			{Fraction: f0, Intensity: units.Intensity(p.I0)},
			{Fraction: p.F1, Intensity: units.Intensity(p.I1)},
			{Fraction: p.F2, Intensity: units.Intensity(p.I2)},
		},
	}
	//lint:ignore evalboundary the interactive form renders the user's ad-hoc model verbatim (memoized upstream via eval.Key); /eval is the registry-backed endpoint
	res, err := m.Evaluate(u)
	if err != nil {
		return nil, err
	}
	ev := &Evaluation{
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
	lo := units.Intensity(minOf(p.I0, p.I1, p.I2) / 16)
	hi := units.Intensity(maxOf(p.I0, p.I1, p.I2) * 16)
	ch, err := plot.GablesChart(m, u, lo, hi, 65)
	if err != nil {
		return nil, err
	}
	svg, err := ch.SVG(860, 480)
	if err != nil {
		return nil, err
	}
	ev.SVG = template.HTML(svg)
	return ev, nil
}

func minOf(vs ...float64) float64 {
	out := vs[0]
	for _, v := range vs[1:] {
		if v < out {
			out = v
		}
	}
	return out
}

func maxOf(vs ...float64) float64 {
	out := vs[0]
	for _, v := range vs[1:] {
		if v > out {
			out = v
		}
	}
	return out
}

type threePage struct {
	Params ThreeParams
	*Evaluation
}

var threeTemplate = template.Must(template.New("three").Parse(`<!DOCTYPE html>
<html><head><title>Gables interactive (three IPs)</title>
<style>
 body { font-family: sans-serif; margin: 2em; max-width: 1000px; }
 fieldset { display: inline-block; vertical-align: top; margin-right: 1em; }
 label { display: block; margin: 0.3em 0; }
 input[type=number] { width: 6em; }
 .result { font-size: 1.2em; margin: 1em 0; }
 table { border-collapse: collapse; } td, th { border: 1px solid #ccc; padding: 0.3em 0.7em; }
 .err { color: #b00; }
</style></head><body>
<h1>Gables: three-IP SoC</h1>
<p>IP[0]'s work fraction is 1 &minus; f1 &minus; f2. <a href="/">two-IP page</a></p>
<form method="GET" action="/three">
 <fieldset><legend>Hardware</legend>
  <label>Ppeak (Gops/s) <input type="number" step="any" name="ppeak" value="{{.Params.PpeakGops}}"></label>
  <label>Bpeak (GB/s) <input type="number" step="any" name="bpeak" value="{{.Params.BpeakGB}}"></label>
  <label>A1 <input type="number" step="any" name="a1" value="{{.Params.A1}}"></label>
  <label>A2 <input type="number" step="any" name="a2" value="{{.Params.A2}}"></label>
  <label>B0 (GB/s) <input type="number" step="any" name="b0" value="{{.Params.B0}}"></label>
  <label>B1 (GB/s) <input type="number" step="any" name="b1" value="{{.Params.B1}}"></label>
  <label>B2 (GB/s) <input type="number" step="any" name="b2" value="{{.Params.B2}}"></label>
 </fieldset>
 <fieldset><legend>Usecase</legend>
  <label>f1 <input type="number" step="any" min="0" max="1" name="f1" value="{{.Params.F1}}"></label>
  <label>f2 <input type="number" step="any" min="0" max="1" name="f2" value="{{.Params.F2}}"></label>
  <label>I0 (ops/B) <input type="number" step="any" name="i0" value="{{.Params.I0}}"></label>
  <label>I1 (ops/B) <input type="number" step="any" name="i1" value="{{.Params.I1}}"></label>
  <label>I2 (ops/B) <input type="number" step="any" name="i2" value="{{.Params.I2}}"></label>
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

// threeHandler serves the three-IP page.
func threeHandler(w http.ResponseWriter, r *http.Request) {
	p, ferrs := parseThreeParams(r)
	ev, err := EvaluateThreeCached(p)
	if err != nil {
		ev = &Evaluation{Err: err.Error()}
	}
	ev.FormErrors = ferrs // after the cache clone: never cached
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := threeTemplate.Execute(w, threePage{Params: p, Evaluation: ev}); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// parseThreeParams reads the three-IP form, reporting each malformed field
// rather than silently keeping its default.
func parseThreeParams(r *http.Request) (ThreeParams, []FormError) {
	p := DefaultThreeParams()
	var errs []FormError
	q := query(r.URL.RawQuery)
	parseFloatField(q, "ppeak", &p.PpeakGops, &errs)
	parseFloatField(q, "bpeak", &p.BpeakGB, &errs)
	parseFloatField(q, "a1", &p.A1, &errs)
	parseFloatField(q, "a2", &p.A2, &errs)
	parseFloatField(q, "b0", &p.B0, &errs)
	parseFloatField(q, "b1", &p.B1, &errs)
	parseFloatField(q, "b2", &p.B2, &errs)
	parseFloatField(q, "f1", &p.F1, &errs)
	parseFloatField(q, "f2", &p.F2, &errs)
	parseFloatField(q, "i0", &p.I0, &errs)
	parseFloatField(q, "i1", &p.I1, &errs)
	parseFloatField(q, "i2", &p.I2, &errs)
	return p, errs
}
