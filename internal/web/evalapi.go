package web

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/jsonenc"
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

// evalHandler answers GET /eval: from the server's answer cache when the
// same question was answered before, by answering it otherwise.
func (s *server) evalHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		evalError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed on /eval (use GET; POST /eval/batch for arrays)", r.Method))
		return
	}
	req, err := s.readEval(r.URL.RawQuery)
	if err != nil {
		evalError(w, http.StatusBadRequest, err)
		return
	}
	key := req.key()
	if body, ok := s.answers.get(key); ok {
		writeBody(w, body)
		return
	}
	enc, status, err := req.answer(r.Context())
	if err != nil {
		evalError(w, status, err)
		return
	}
	defer putResponse(enc)
	s.answers.put(key, enc.Bytes())
	writeBody(w, enc.Bytes())
}

// evalRequest is one read GET /eval question: its numbers, its chip's
// preset and the evaluator that answers it.
type evalRequest struct {
	spec   evalQuerySpec
	preset *eval.Preset
	ev     eval.Evaluator
}

// readEval reads a GET /eval query: the eight keys in one pass, the
// numbers through the shared validated parsers (parse.go, so NaN/Inf and
// non-positive counts are rejected with the field named), the chip's
// preset and the backend. It does not build the query, so a cache hit
// never does.
func (s *server) readEval(raw string) (evalRequest, error) {
	var form evalForm
	query(raw).read(evalKeys[:], form[:])
	spec, err := parseEvalSpec(&form)
	if err != nil {
		return evalRequest{}, err
	}
	preset, err := s.chips.preset(spec.Chip)
	if err != nil {
		return evalRequest{}, err
	}
	ev, err := s.resolveBackend(form[keyBackend])
	if err != nil {
		// A question that cannot be built is reported before an unknown
		// backend, the order of /eval's errors.
		if _, qerr := spec.queryOn(preset); qerr != nil {
			err = qerr
		}
		return evalRequest{}, err
	}
	return evalRequest{spec: spec, preset: preset, ev: ev}, nil
}

// answer is /eval's uncached path: it builds the query, evaluates it,
// fingerprints it and encodes the response into a pooled writer, which
// the caller sends and returns with putResponse. On failure it returns
// the status to report the error with instead.
func (req *evalRequest) answer(ctx context.Context) (*jsonenc.Writer, int, error) {
	q, err := req.spec.queryOn(req.preset)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	o, err := req.ev.Evaluate(ctx, q)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	fp, err := eval.Fingerprint(q)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	enc, err := encodeResponse(&evalResponse{Chip: q.Chip.Name, Backend: o.Backend, Fingerprint: fp, Outcome: o})
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	return enc, http.StatusOK, nil
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

// parseEvalSpec reads the question's numbers from the request's query
// values over the shared defaults; all numeric fields go through the
// shared validated parsers (parse.go).
func parseEvalSpec(form *evalForm) (evalQuerySpec, error) {
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
				return evalQuerySpec{}, err
			}
		}
	}
	for _, f := range []struct {
		key int
		dst *int
	}{{keyFPW, &spec.FPW}, {keyWords, &spec.Words}, {keyTrials, &spec.Trials}} {
		if v := form[f.key]; v != "" {
			if *f.dst, err = parsePositiveInt(evalKeys[f.key], v); err != nil {
				return evalQuerySpec{}, err
			}
		}
	}
	return spec, nil
}

// evalError reports an /eval failure as JSON.
func evalError(w http.ResponseWriter, status int, err error) {
	setContentType(w, jsonTypeHeader)
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
