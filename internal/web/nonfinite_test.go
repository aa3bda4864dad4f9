package web

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/gables-model/gables/internal/eval"
)

// nonFiniteBackend answers every query finitely except by trial count:
// 2 puts NaN in Attainable, 4 puts +Inf in an IP's Rate and 5 puts -Inf in
// the confidence interval — values JSON cannot carry.
type nonFiniteBackend struct{}

func (nonFiniteBackend) Meta() eval.Meta {
	return eval.Meta{Name: "stub-nonfinite", Fidelity: eval.FidelityAnalytic, Description: "non-finite outcome test stub"}
}
func (nonFiniteBackend) Supports(eval.Query) error { return nil }
func (nonFiniteBackend) Evaluate(_ context.Context, q eval.Query) (*eval.Outcome, error) {
	o := &eval.Outcome{
		Backend: "stub-nonfinite", Fidelity: eval.FidelityAnalytic,
		Attainable: float64(q.Trials), Makespan: 1, TotalFlops: 1,
		Bottleneck: eval.Bottleneck{Kind: "IP", Name: "CPU"},
		IPs:        []eval.IPOutcome{{IP: "CPU", Flops: 1, Bytes: 8, Time: 1, Rate: 1}},
	}
	switch q.Trials {
	case 2:
		o.Attainable = math.NaN()
	case 4:
		o.IPs[0].Rate = math.Inf(1)
	case 5:
		o.Confidence = &eval.Confidence{RelErrBound: 0.1, Lo: math.Inf(-1), Hi: 1, Bucket: "b", Efficiency: 1}
	}
	return o, nil
}

func serve(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec
}

// TestNonFiniteOutcomeFailure pins what a client sees when a backend
// answers with a float JSON cannot represent: buffered /eval and
// /eval/batch fail the whole request with a 500 naming the value, and an
// NDJSON stream ends cleanly after the last line that could be encoded.
func TestNonFiniteOutcomeFailure(t *testing.T) {
	eval.Register("stub-nonfinite", func() (eval.Evaluator, error) { return nonFiniteBackend{}, nil })
	h := Handler()

	for _, tc := range []struct {
		trials int
		value  string
	}{{2, "NaN"}, {4, "+Inf"}, {5, "-Inf"}} {
		wantBody := `{"error":"json: unsupported value: ` + tc.value + `"}` + "\n"
		target := "/eval?backend=stub-nonfinite&trials=" + strconv.Itoa(tc.trials)
		if rec := serve(h, http.MethodGet, target, ""); rec.Code != http.StatusInternalServerError || rec.Body.String() != wantBody {
			t.Errorf("GET %s: %d %q, want 500 %q", target, rec.Code, rec.Body.String(), wantBody)
		}

		body := `{"backend":"stub-nonfinite","items":[{"trials":1},{"trials":` + strconv.Itoa(tc.trials) + `},{"trials":3}]}`
		rec := serve(h, http.MethodPost, "/eval/batch", body)
		if rec.Code != http.StatusInternalServerError || rec.Body.String() != wantBody {
			t.Errorf("buffered batch with %s: %d %q, want 500 %q", tc.value, rec.Code, rec.Body.String(), wantBody)
		}

		// The stream has committed a 200 by the time the bad item comes
		// up: it carries item 0's line, whole, and nothing after it.
		rec = serve(h, http.MethodPost, "/eval/batch?stream=1", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("NDJSON batch with %s: status %d", tc.value, rec.Code)
		}
		out := rec.Body.Bytes()
		if bytes.Count(out, []byte("\n")) != 1 || !bytes.HasSuffix(out, []byte("\n")) {
			t.Fatalf("NDJSON batch with %s: body %q, want exactly one whole line", tc.value, out)
		}
		var first batchItemResult
		if err := json.Unmarshal(out, &first); err != nil {
			t.Fatalf("NDJSON batch with %s: %v", tc.value, err)
		}
		if first.Outcome == nil || first.Outcome.Attainable != 1 || first.Error != "" {
			t.Errorf("NDJSON batch with %s: first line %+v, want item 0's outcome", tc.value, first)
		}
	}

	// Eight items on four workers encode as four chunks of two. With
	// non-finite outcomes in two chunks, the 500 names the first in item
	// order, whichever chunk finishes first.
	h = NewHandler(Options{BatchWorkers: 4})
	for _, tc := range []struct {
		bad   map[int]int // item index → trials
		value string
	}{
		{map[int]int{1: 4, 6: 2}, "+Inf"},
		{map[int]int{2: 2, 7: 5}, "NaN"},
		{map[int]int{3: 5, 4: 4}, "-Inf"},
	} {
		items := make([]string, 8)
		for i := range items {
			trials := 1
			if bad, ok := tc.bad[i]; ok {
				trials = bad
			}
			items[i] = `{"trials":` + strconv.Itoa(trials) + `}`
		}
		body := `{"backend":"stub-nonfinite","items":[` + strings.Join(items, ",") + `]}`
		wantBody := `{"error":"json: unsupported value: ` + tc.value + `"}` + "\n"
		if rec := serve(h, http.MethodPost, "/eval/batch", body); rec.Code != http.StatusInternalServerError || rec.Body.String() != wantBody {
			t.Errorf("chunked batch with %v: %d %q, want 500 %q", tc.bad, rec.Code, rec.Body.String(), wantBody)
		}
	}
}
