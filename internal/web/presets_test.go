package web

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/sim"
)

// TestSharedPresetsNeverMutated runs the differential corpus shapes and
// the benchmark canary shapes through every backend on one server's chip
// table, point-wise, as slabs and through /eval and /eval/batch, and then
// requires each table entry to still equal a freshly built preset. Every
// request for a chip shares that entry's backing, so a single write by
// any backend would leak into every later answer.
func TestSharedPresetsNeverMutated(t *testing.T) {
	ctx := context.Background()
	s := newServer(Options{})
	h := s.routes()
	backends := []string{"analytic", "sim", "surrogate", "auto"}
	chips := []string{"snapdragon835", "snapdragon821", "snapdragon835x"}

	// The corpus queries, moved onto each table chip (idle extra IPs on
	// the extended chip).
	var qs []eval.Query
	for _, name := range chips {
		cfg := presetChip(t, s.chips, name)
		for _, fx := range eval.DefaultCorpus() {
			q := fx.Query
			q.Chip = cfg
			q.Work = append(q.Work[:len(q.Work):len(q.Work)], make([]eval.IPWork, len(cfg.IPs)-len(q.Work))...)
			qs = append(qs, q)
		}
	}
	for _, name := range backends {
		ev, err := eval.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			if _, err := ev.Evaluate(ctx, q); err != nil {
				t.Errorf("%s: corpus query %d: %v", name, i, err)
			}
		}
		if be, ok := ev.(eval.BatchEvaluator); ok {
			if err := be.EvaluateBatch(ctx, qs, make([]eval.Outcome, len(qs))); err != nil {
				t.Errorf("%s: corpus slab: %v", name, err)
			}
		}
	}

	// The same corpus shapes and the canary shapes as /eval/batch items
	// and /eval requests, on every chip and backend.
	shapes := []string{`"f":0.5,"fpw":32`, `"f":0.25,"fpw":512`}
	for _, f := range []string{"0", "0.25", "0.5", "0.75", "1"} {
		for _, fpw := range []string{"8", "512"} {
			shapes = append(shapes, `"trials":2,"f":`+f+`,"fpw":`+fpw)
		}
	}
	shapes = append(shapes,
		`"trials":2,"f":0.5,"fpw":4096`,
		`"trials":2,"f":0.5,"fpw":8,"serialized":true`,
		`"trials":2,"f":0.5,"fpw":512,"serialized":true`,
		`"trials":2,"f":0.375,"dsp":0.125,"words":16777216,"fpw":32`,
		`"trials":2,"f":0.375,"dsp":0.125,"words":16777216,"fpw":512`,
		`"trials":2,"f":0.375,"dsp":0.125,"words":16777216,"fpw":64,"serialized":true`)
	var items []string
	for _, chip := range chips {
		for _, backend := range backends {
			for _, shape := range shapes {
				items = append(items, fmt.Sprintf(`{"chip":%q,"backend":%q,%s}`, chip, backend, shape))
			}
			rec := serve(h, http.MethodGet, "/eval?chip="+chip+"&backend="+backend+"&f=0.25&fpw=512", "")
			if rec.Code != http.StatusOK {
				t.Errorf("/eval %s/%s: status %d: %s", chip, backend, rec.Code, rec.Body)
			}
		}
	}
	body := `{"items":[` + strings.Join(items, ",") + `]}`
	for _, target := range []string{"/eval/batch", "/eval/batch?stream=1"} {
		rec := serve(h, http.MethodPost, target, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body)
		}
		if strings.HasSuffix(target, "stream=1") {
			if n := strings.Count(rec.Body.String(), "\n"); n != len(items) {
				t.Errorf("%s: %d lines for %d items", target, n, len(items))
			}
			continue
		}
		var out batchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		for i, it := range out.Items {
			if it.Error != "" {
				t.Errorf("%s: item %d (%s): %s", target, i, items[i], it.Error)
			}
		}
	}

	for _, tc := range []struct {
		name  string
		fresh sim.Config
	}{
		{"snapdragon835", sim.Snapdragon835()},
		{"snapdragon821", sim.Snapdragon821()},
		{"snapdragon835x", sim.Snapdragon835Extended()},
	} {
		if got := presetChip(t, s.chips, tc.name); !reflect.DeepEqual(got, tc.fresh) {
			t.Errorf("%s: shared preset was mutated:\n got %+v\nwant %+v", tc.name, got, tc.fresh)
		}
	}
}

// presetChip returns the config of the named preset in chips, whose
// backing every query for that chip shares.
func presetChip(t *testing.T, chips *chipPresets, name string) sim.Config {
	t.Helper()
	p, err := chips.preset(name)
	if err != nil {
		t.Fatal(err)
	}
	return p.Query().Chip
}

// TestPresetsSharedPerChip pins the table's point: every query for one
// chip is built on the same Config backing, whichever name spells it, and
// an unknown name keeps its error text.
func TestPresetsSharedPerChip(t *testing.T) {
	chips := newChipPresets()
	backing := func(name string) *sim.IPSpec {
		q, err := evalQuerySpec{Chip: name, F: 0.5, FPW: 8, Words: 1 << 20, Trials: 2}.buildQuery(chips)
		if err != nil {
			t.Fatal(err)
		}
		return &q.Chip.IPs[0]
	}
	for _, names := range [][2]string{{"", "snapdragon835"}, {"snapdragon821", "snapdragon821"}, {"snapdragon835x", "snapdragon835x"}} {
		if backing(names[0]) != backing(names[1]) {
			t.Errorf("chips %q and %q do not share one preset backing", names[0], names[1])
		}
	}
	if backing("snapdragon835") == backing("snapdragon821") {
		t.Error("two chips share one backing")
	}
	if _, err := chips.preset("nope"); err == nil || err.Error() != `unknown chip "nope" (have snapdragon835, snapdragon821, snapdragon835x)` {
		t.Errorf("unknown chip error = %v", err)
	}
}

// servedFingerprints asks s for chip's key at one question through /eval
// and through both /eval/batch shapes.
func servedFingerprints(t *testing.T, s *server, chip string) []string {
	t.Helper()
	h := s.routes()
	var fps []string
	rec := serve(h, http.MethodGet, "/eval?backend=analytic&f=0.25&fpw=512&chip="+chip, "")
	var point evalResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &point); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("/eval %s: status %d (%v): %s", chip, rec.Code, err, rec.Body)
	}
	fps = append(fps, point.Fingerprint)
	body := `{"items":[{"backend":"analytic","f":0.25,"fpw":512,"chip":"` + chip + `"}]}`
	for _, target := range []string{"/eval/batch", "/eval/batch?stream=1"} {
		rec := serve(h, http.MethodPost, target, body)
		var out batchResponse
		line := rec.Body.Bytes()
		if strings.HasSuffix(target, "stream=1") {
			out.Items = make([]batchItemResult, 1)
			err := json.Unmarshal(line, &out.Items[0])
			if err != nil || rec.Code != http.StatusOK {
				t.Fatalf("%s %s: status %d (%v): %s", target, chip, rec.Code, err, line)
			}
		} else if err := json.Unmarshal(line, &out); err != nil || rec.Code != http.StatusOK || len(out.Items) != 1 {
			t.Fatalf("%s %s: status %d (%v): %s", target, chip, rec.Code, err, line)
		}
		fps = append(fps, out.Items[0].Fingerprint)
	}
	return fps
}

// TestPresetFingerprintsMatchFullHash pins the midstate keys to
// eval.Fingerprint on a freshly built preset, for every chip, and pins the
// midstate's guard: a server whose preset backing was written after its
// table was built must answer the full hash of the config it now holds,
// not the stale midstate's key.
func TestPresetFingerprintsMatchFullHash(t *testing.T) {
	fresh := map[string]func() sim.Config{
		"snapdragon835":  sim.Snapdragon835,
		"snapdragon821":  sim.Snapdragon821,
		"snapdragon835x": sim.Snapdragon835Extended,
	}
	spec := func(chip string) evalQuerySpec {
		s := defaultEvalSpec()
		s.Chip, s.F, s.FPW = chip, 0.25, 512
		return s
	}
	s := newServer(Options{})
	for chip, build := range fresh {
		q, err := spec(chip).buildQuery(s.chips)
		if err != nil {
			t.Fatal(err)
		}
		q.Chip = build()
		want, err := eval.Fingerprint(q)
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range servedFingerprints(t, s, chip) {
			if got != want {
				t.Errorf("%s, surface %d: fingerprint %s, eval.Fingerprint on a fresh preset %s", chip, i, got, want)
			}
		}

		mutated := newServer(Options{})
		cfg := presetChip(t, mutated.chips, chip)
		cfg.IPs[1].ComputeRate *= 2 // through the table's shared backing
		mq, err := spec(chip).buildQuery(mutated.chips)
		if err != nil {
			t.Fatal(err)
		}
		full, err := eval.Fingerprint(mq)
		if err != nil {
			t.Fatal(err)
		}
		if full == want {
			t.Fatalf("%s: the mutation did not move the key", chip)
		}
		for i, got := range servedFingerprints(t, mutated, chip) {
			if got != full {
				t.Errorf("%s mutated, surface %d: fingerprint %s, want the full hash %s", chip, i, got, full)
			}
		}
	}
}
