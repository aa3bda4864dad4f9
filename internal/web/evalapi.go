package web

import (
	"encoding/json"
	"fmt"
	"net/http"

	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/sim"
)

// /eval exposes the unified evaluator as a JSON API: one SoC+work query,
// answered by a registry-selected backend. Unlike the HTML pages — which
// render the closed-form model over free-form hardware parameters — this
// endpoint works on the simulated chip presets, so the same question can
// be answered at either fidelity (?backend=analytic|sim|auto) and the
// response records which backend produced the number. /eval/batch
// (batch.go) answers arrays of the same question shape.

// evalResponse is the /eval payload.
type evalResponse struct {
	// Chip and Backend echo the resolved query.
	Chip    string `json:"chip"`
	Backend string `json:"backend"`
	// Fingerprint is the canonical query identity (eval.Fingerprint).
	Fingerprint string `json:"fingerprint"`
	// Outcome is the evaluator's answer.
	Outcome *eval.Outcome `json:"outcome"`
}

// chipPresets is one server's chip table, resolved once by NewHandler and
// never written afterwards. Every /eval and /eval/batch query for a chip
// shares that chip's sim.Config backing, which is what lets the analytic
// slab path (eval.(*Analytic).EvaluateBatch) derive each chip's model once
// per slab instead of once per item. Sharing is only safe while nothing
// mutates a Config; TestSharedPresetsNeverMutated pins that for every
// backend. Each entry also keeps its config's fingerprint midstate, so a
// query's key hashes only its run half (DESIGN.md §7).
type chipPresets struct {
	sd835, sd821, sd835x preset
}

// preset is one chip of the table and its fingerprint midstate.
type preset struct {
	cfg    sim.Config
	prefix *sim.FingerprintPrefix
}

func newPreset(cfg sim.Config) preset {
	return preset{cfg: cfg, prefix: sim.NewFingerprintPrefix(cfg)}
}

// newChipPresets resolves the three /eval chip presets.
func newChipPresets() *chipPresets {
	return &chipPresets{
		sd835:  newPreset(sim.Snapdragon835()),
		sd821:  newPreset(sim.Snapdragon821()),
		sd835x: newPreset(sim.Snapdragon835Extended()),
	}
}

// chip resolves a preset name; the default is the calibrated 835.
func (p *chipPresets) chip(name string) (sim.Config, error) {
	switch name {
	case "", "snapdragon835":
		return p.sd835.cfg, nil
	case "snapdragon821":
		return p.sd821.cfg, nil
	case "snapdragon835x":
		return p.sd835x.cfg, nil
	}
	return sim.Config{}, fmt.Errorf("unknown chip %q (have snapdragon835, snapdragon821, snapdragon835x)", name)
}

// fingerprint returns eval.Fingerprint(q), resumed from the midstate of
// the preset q's chip is named after. The midstate's own guard falls back
// to the full hash for any chip that is not structurally that preset.
func (p *chipPresets) fingerprint(q eval.Query) (string, error) {
	var prefix *sim.FingerprintPrefix
	for _, e := range [...]*preset{&p.sd835, &p.sd821, &p.sd835x} {
		if e.cfg.Name == q.Chip.Name {
			prefix = e.prefix
			break
		}
	}
	return eval.FingerprintFrom(prefix, q)
}

// evalHandler answers GET /eval.
func (s *server) evalHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		evalError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed on /eval (use GET; POST /eval/batch for arrays)", r.Method))
		return
	}
	form := query(r.URL.RawQuery)
	q, err := parseEvalQuery(form, s.chips)
	if err != nil {
		evalError(w, http.StatusBadRequest, err)
		return
	}
	ev, err := resolveBackend(form.Get("backend"))
	if err != nil {
		evalError(w, http.StatusBadRequest, err)
		return
	}
	o, err := ev.Evaluate(r.Context(), q)
	if err != nil {
		evalError(w, http.StatusUnprocessableEntity, err)
		return
	}
	fp, err := s.chips.fingerprint(q)
	if err != nil {
		evalError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, &evalResponse{Chip: q.Chip.Name, Backend: o.Backend, Fingerprint: fp, Outcome: o})
}

// resolveBackend maps a request's backend name to an evaluator: the
// process default when empty, the registry otherwise.
func resolveBackend(name string) (eval.Evaluator, error) {
	if name == "" {
		return eval.Default(), nil
	}
	return eval.Resolve(name)
}

// parseEvalQuery builds the eval.Query from the request's query string on
// the server's chip table; all numeric fields go through the shared
// validated parsers (parse.go), so NaN/Inf and non-positive counts are
// rejected with the field named.
func parseEvalQuery(form query, chips *chipPresets) (eval.Query, error) {
	spec := defaultEvalSpec()
	spec.Chip = form.Get("chip")
	spec.Serialized = form.Get("serialized") == "1"

	var err error
	for _, f := range []struct {
		name string
		dst  *float64
	}{{"f", &spec.F}, {"dsp", &spec.DSP}} {
		if v := form.Get(f.name); v != "" {
			if *f.dst, err = parseFinite(f.name, v); err != nil {
				return eval.Query{}, err
			}
		}
	}
	for _, f := range []struct {
		name string
		dst  *int
	}{{"fpw", &spec.FPW}, {"words", &spec.Words}, {"trials", &spec.Trials}} {
		if v := form.Get(f.name); v != "" {
			if *f.dst, err = parsePositiveInt(f.name, v); err != nil {
				return eval.Query{}, err
			}
		}
	}
	return spec.buildQuery(chips)
}

// evalError reports an /eval failure as JSON.
func evalError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
