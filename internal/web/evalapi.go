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
// be answered at any fidelity (?backend=analytic|sim|surrogate|auto) and
// the response records which backend produced the number. /eval/batch
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

// chipPresets is one server's chip table, compiled once by NewHandler and
// never written afterwards. Every /eval and /eval/batch query for a chip
// is made by that chip's eval.Preset, so it shares the preset's
// sim.Config backing (what lets eval.(*Analytic).EvaluateBatch group a
// slab by chip) and carries the preset's fingerprint midstate and
// analytic plan (DESIGN.md §7). Sharing is only safe while nothing
// mutates a Config; TestSharedPresetsNeverMutated pins that for every
// backend, and the preset's guard falls back to a full hash and a fresh
// derivation if something ever does.
type chipPresets struct {
	sd835, sd821, sd835x *eval.Preset
}

// newChipPresets compiles the three /eval chip presets.
func newChipPresets() *chipPresets {
	return &chipPresets{
		sd835:  eval.NewPreset(sim.Snapdragon835()),
		sd821:  eval.NewPreset(sim.Snapdragon821()),
		sd835x: eval.NewPreset(sim.Snapdragon835Extended()),
	}
}

// preset resolves a preset name; the default is the calibrated 835.
func (p *chipPresets) preset(name string) (*eval.Preset, error) {
	switch name {
	case "", "snapdragon835":
		return p.sd835, nil
	case "snapdragon821":
		return p.sd821, nil
	case "snapdragon835x":
		return p.sd835x, nil
	}
	return nil, fmt.Errorf("unknown chip %q (have snapdragon835, snapdragon821, snapdragon835x)", name)
}

// evalHandler answers GET /eval.
func (s *server) evalHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		evalError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed on /eval (use GET; POST /eval/batch for arrays)", r.Method))
		return
	}
	var form evalForm
	query(r.URL.RawQuery).read(evalKeys[:], form[:])
	q, err := parseEvalQuery(&form, s.chips)
	if err != nil {
		evalError(w, http.StatusBadRequest, err)
		return
	}
	ev, err := s.resolveBackend(form[keyBackend])
	if err != nil {
		evalError(w, http.StatusBadRequest, err)
		return
	}
	o, err := ev.Evaluate(r.Context(), q)
	if err != nil {
		evalError(w, http.StatusUnprocessableEntity, err)
		return
	}
	fp, err := eval.Fingerprint(q)
	if err != nil {
		evalError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, &evalResponse{Chip: q.Chip.Name, Backend: o.Backend, Fingerprint: fp, Outcome: o})
}

// resolveBackend maps a request's backend name to a registered
// evaluator; an empty name means the server's Options.Backend, and an
// empty Options.Backend means "sim".
func (s *server) resolveBackend(name string) (eval.Evaluator, error) {
	if name == "" {
		name = s.opts.Backend
	}
	if name == "" {
		name = "sim"
	}
	return eval.Resolve(name)
}

// The keys GET /eval reads, as indexes into evalKeys and an evalForm.
const (
	keyChip = iota
	keySerialized
	keyF
	keyDSP
	keyFPW
	keyWords
	keyTrials
	keyBackend
)

// evalKeys names GET /eval's keys, read in one pass over the raw query.
var evalKeys = [...]string{
	keyChip:       "chip",
	keySerialized: "serialized",
	keyF:          "f",
	keyDSP:        "dsp",
	keyFPW:        "fpw",
	keyWords:      "words",
	keyTrials:     "trials",
	keyBackend:    "backend",
}

// evalForm holds the first value of each of evalKeys.
type evalForm [len(evalKeys)]string

// parseEvalQuery builds the eval.Query from the request's query values on
// the server's chip table; all numeric fields go through the shared
// validated parsers (parse.go), so NaN/Inf and non-positive counts are
// rejected with the field named.
func parseEvalQuery(form *evalForm, chips *chipPresets) (eval.Query, error) {
	spec := defaultEvalSpec()
	spec.Chip = form[keyChip]
	spec.Serialized = form[keySerialized] == "1"

	var err error
	for _, f := range []struct {
		key int
		dst *float64
	}{{keyF, &spec.F}, {keyDSP, &spec.DSP}} {
		if v := form[f.key]; v != "" {
			if *f.dst, err = parseFinite(evalKeys[f.key], v); err != nil {
				return eval.Query{}, err
			}
		}
	}
	for _, f := range []struct {
		key int
		dst *int
	}{{keyFPW, &spec.FPW}, {keyWords, &spec.Words}, {keyTrials, &spec.Trials}} {
		if v := form[f.key]; v != "" {
			if *f.dst, err = parsePositiveInt(evalKeys[f.key], v); err != nil {
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
