package web

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func getEval(t *testing.T, srv *httptest.Server, query string) (*evalResponse, int) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/eval" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var out evalResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp.StatusCode
}

func TestEvalEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	// Default query answers with the server's default backend.
	def, status := getEval(t, srv, "")
	if status != http.StatusOK {
		t.Fatalf("default query status = %d", status)
	}
	if def.Backend == "" || def.Fingerprint == "" || def.Outcome == nil {
		t.Fatalf("incomplete response %+v", def)
	}
	if def.Outcome.Attainable <= 0 {
		t.Errorf("attainable = %v, want positive", def.Outcome.Attainable)
	}
	if def.Chip != "snapdragon-835-sim" {
		t.Errorf("chip = %q", def.Chip)
	}

	// Both explicit backends answer the same fingerprint and agree within
	// the differential oracle's per-fixture band.
	an, status := getEval(t, srv, "?backend=analytic&f=0.5&fpw=512")
	if status != http.StatusOK {
		t.Fatalf("analytic status = %d", status)
	}
	sm, status := getEval(t, srv, "?backend=sim&f=0.5&fpw=512")
	if status != http.StatusOK {
		t.Fatalf("sim status = %d", status)
	}
	if an.Fingerprint != sm.Fingerprint {
		t.Error("backends answered different fingerprints for the same query")
	}
	if an.Backend != "analytic" || sm.Backend != "sim" {
		t.Errorf("backends = %q/%q", an.Backend, sm.Backend)
	}
	rel := math.Abs(sm.Outcome.Attainable-an.Outcome.Attainable) / sm.Outcome.Attainable
	if rel > 0.30 {
		t.Errorf("backends disagree by %.1f%% on the web-path query", 100*rel)
	}

	// The three-IP web-path shape (DSP active) keeps bottleneck identity
	// across backends (the corpus asserts this wholesale; this pins the
	// HTTP path).
	an3, status := getEval(t, srv, "?backend=analytic&f=0.375&dsp=0.125&fpw=512&words=16777216")
	if status != http.StatusOK {
		t.Fatalf("three-IP analytic status = %d", status)
	}
	sm3, status := getEval(t, srv, "?backend=sim&f=0.375&dsp=0.125&fpw=512&words=16777216")
	if status != http.StatusOK {
		t.Fatalf("three-IP sim status = %d", status)
	}
	if len(an3.Outcome.IPs) != 3 || len(sm3.Outcome.IPs) != 3 {
		t.Fatalf("three-IP query activated %d/%d IPs, want 3", len(an3.Outcome.IPs), len(sm3.Outcome.IPs))
	}
	if an3.Outcome.Bottleneck != sm3.Outcome.Bottleneck && an3.Outcome.TieRatio < 0.9 {
		t.Errorf("three-IP bottleneck identity disagrees: analytic %v (tie %.2f) vs sim %v",
			an3.Outcome.Bottleneck, an3.Outcome.TieRatio, sm3.Outcome.Bottleneck)
	}

	// Serialized form works through the endpoint.
	ser, status := getEval(t, srv, "?serialized=1&backend=sim")
	if status != http.StatusOK {
		t.Fatalf("serialized status = %d", status)
	}
	if ser.Fingerprint == sm.Fingerprint {
		t.Error("serialized query must fingerprint differently")
	}
}

// TestEvalEndpointSurrogate pins the surrogate backend's HTTP face: an
// in-envelope query is answered by the fitted fast path (Backend
// "surrogate") with a confidence envelope containing sim's answer, and an
// out-of-envelope query routes to sim (Backend "sim", no confidence).
// TestOptionsBackend pins Options.Backend: it answers the /eval queries
// and /eval/batch items that name no backend, "" means sim, and a named
// backend still overrides it.
func TestOptionsBackend(t *testing.T) {
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{Options{}, "sim"},
		{Options{Backend: "analytic"}, "analytic"},
	} {
		h := NewHandler(tc.opts)
		rec := serve(h, http.MethodGet, "/eval?f=0.5&fpw=512", "")
		var point evalResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &point); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("%+v: GET /eval status %d, decode %v", tc.opts, rec.Code, err)
		}
		if point.Backend != tc.want {
			t.Errorf("%+v: GET /eval answered by %q, want %q", tc.opts, point.Backend, tc.want)
		}

		rec = serve(h, http.MethodPost, "/eval/batch", `{"items":[{"f":0.5,"fpw":512},{"f":0.5,"fpw":512,"backend":"auto"}]}`)
		var batch batchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil || rec.Code != http.StatusOK || len(batch.Items) != 2 {
			t.Fatalf("%+v: POST /eval/batch status %d, decode %v, %d items", tc.opts, rec.Code, err, len(batch.Items))
		}
		if got := batch.Items[0].Backend; got != tc.want {
			t.Errorf("%+v: unnamed batch item answered by %q, want %q", tc.opts, got, tc.want)
		}
		if got := batch.Items[1].Backend; got != "analytic" {
			t.Errorf("%+v: batch item naming auto answered by %q, want analytic (in the envelope)", tc.opts, got)
		}
	}
}

func TestEvalEndpointSurrogate(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	sur, status := getEval(t, srv, "?backend=surrogate&f=0.5&fpw=512")
	if status != http.StatusOK {
		t.Fatalf("surrogate status = %d", status)
	}
	if sur.Backend != "surrogate" {
		t.Fatalf("backend = %q, want the fitted fast path", sur.Backend)
	}
	c := sur.Outcome.Confidence
	if c == nil {
		t.Fatal("in-envelope surrogate answer carries no confidence")
	}
	sm, status := getEval(t, srv, "?backend=sim&f=0.5&fpw=512")
	if status != http.StatusOK {
		t.Fatalf("sim status = %d", status)
	}
	if sur.Fingerprint != sm.Fingerprint {
		t.Error("surrogate answered a different fingerprint than sim")
	}
	if sm.Outcome.Attainable < c.Lo || sm.Outcome.Attainable > c.Hi {
		t.Errorf("sim's %.4g outside the surrogate confidence envelope [%.4g, %.4g]",
			sm.Outcome.Attainable, c.Lo, c.Hi)
	}

	ser, status := getEval(t, srv, "?backend=surrogate&serialized=1")
	if status != http.StatusOK {
		t.Fatalf("serialized surrogate status = %d", status)
	}
	if ser.Backend != "sim" {
		t.Errorf("serialized query answered by %q, want the sim fallback", ser.Backend)
	}
	if ser.Outcome.Confidence != nil {
		t.Error("fallback answer must carry no confidence")
	}
}

func TestEvalEndpointErrors(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	for _, tc := range []struct {
		query string
		want  int
	}{
		{"?backend=nope", http.StatusBadRequest},
		{"?chip=nope", http.StatusBadRequest},
		{"?f=1.5", http.StatusBadRequest},
		{"?f=0.5&dsp=0.75", http.StatusBadRequest},
		{"?fpw=x", http.StatusBadRequest},
		{"?words=-4", http.StatusBadRequest},
		// Non-finite floats must be rejected at the boundary: NaN slips
		// through the fGPU+fDSP range check (NaN comparisons are false)
		// and used to reach SplitWork through /eval's old local parser.
		{"?f=NaN", http.StatusBadRequest},
		{"?f=Inf", http.StatusBadRequest},
		{"?f=-Inf", http.StatusBadRequest},
		{"?dsp=NaN", http.StatusBadRequest},
		// Counts must be strictly positive, rejected at parse time with
		// 400 (not surfaced later as a 422 from the evaluator).
		{"?words=0", http.StatusBadRequest},
		{"?fpw=0", http.StatusBadRequest},
		{"?fpw=-32", http.StatusBadRequest},
		{"?trials=0", http.StatusBadRequest},
		{"?trials=-1", http.StatusBadRequest},
		{"?trials=1.5", http.StatusBadRequest},
	} {
		if _, status := getEval(t, srv, tc.query); status != tc.want {
			t.Errorf("GET /eval%s status = %d, want %d", tc.query, status, tc.want)
		}
	}

	// Field errors name the offending field so clients can fix the query.
	resp, err := http.Get(srv.URL + "/eval?trials=-1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body["error"], "trials") {
		t.Errorf("error %q does not name the field", body["error"])
	}
}

// TestEvalMethodNotAllowed pins the method contract: /eval is GET-only and
// /eval/batch is POST-only, each advertising the allowed method.
func TestEvalMethodNotAllowed(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/eval", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /eval status = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
		t.Errorf("POST /eval Allow = %q, want %q", allow, http.MethodGet)
	}

	resp, err = http.Get(srv.URL + "/eval/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /eval/batch status = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Errorf("GET /eval/batch Allow = %q, want %q", allow, http.MethodPost)
	}
}
