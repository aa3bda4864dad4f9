package web

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

var twoIP, threeIP = pages[0], pages[1]

// paramsFor parses query on pg's form.
func paramsFor(t *testing.T, pg *page, query string) pageParams {
	t.Helper()
	p, ferrs := pg.parse(httptest.NewRequest("GET", pg.Path+"?"+query, nil))
	if len(ferrs) != 0 {
		t.Fatalf("%s?%s: form errors %+v", pg.Path, query, ferrs)
	}
	return p
}

func TestEvaluateDefaults(t *testing.T) {
	for _, tc := range []struct {
		name       string
		pg         *page
		query      string
		attainable string // substring; "" checks only that it is set
		bottleneck string
		terms      int
	}{
		// The paper's Figure 6b: 1.328 Gops/s, memory bound.
		{"two-IP defaults", twoIP, "", "1.328", "memory", 3},
		{"three-IP defaults", threeIP, "", "", "", 4}, // three IPs + memory
		// f1=0.9, f2=0.1 sums to 1.0000000000000002 in float64 and makes
		// IP[0]'s fraction -2.8e-17: the legitimate "no work on IP[0]"
		// split, not an error.
		{"three-IP full split", threeIP, "f1=0.9&f2=0.1", "", "", 3},
		{"three-IP idle IP[2]", threeIP, "f2=0", "", "", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ev, err := tc.pg.evaluate(paramsFor(t, tc.pg, tc.query))
			if err != nil {
				t.Fatal(err)
			}
			if ev.Attainable == "" || !strings.Contains(ev.Attainable, tc.attainable) {
				t.Errorf("attainable = %q, want %q", ev.Attainable, tc.attainable)
			}
			if ev.Bottleneck == "" || !strings.Contains(ev.Bottleneck, tc.bottleneck) {
				t.Errorf("bottleneck = %q, want %q", ev.Bottleneck, tc.bottleneck)
			}
			if len(ev.Terms) != tc.terms {
				t.Errorf("terms = %d, want %d", len(ev.Terms), tc.terms)
			}
			if !strings.Contains(string(ev.SVG), "</svg>") {
				t.Error("SVG missing")
			}
		})
	}
}

func TestEvaluateValidation(t *testing.T) {
	for _, tc := range []struct {
		pg      *page
		query   string
		wantErr string
	}{
		{twoIP, "f=2", "web: f must be in [0,1], got 2"},
		{twoIP, "f=-0.5", "web: f must be in [0,1], got -0.5"},
		{twoIP, "ppeak=0", "web: hardware parameters must be positive"},
		{twoIP, "i1=-1", "web: intensities must be positive"},
		{threeIP, "f1=0.7&f2=0.7", "web: fractions must be non-negative with f1+f2 <= 1, got 0.7 + 0.7"},
		{threeIP, "f2=-0.1", "web: fractions must be non-negative with f1+f2 <= 1, got 0.6 + -0.1"},
		{threeIP, "a2=0", "web: hardware parameters must be positive"},
		{threeIP, "i2=-1", "web: intensities must be positive"},
	} {
		_, err := tc.pg.evaluate(paramsFor(t, tc.pg, tc.query))
		if err == nil || err.Error() != tc.wantErr {
			t.Errorf("%s?%s: error %v, want %q", tc.pg.Path, tc.query, err, tc.wantErr)
		}
	}
}

// TestFractionRule pins the one fraction rule both pages share: the
// fractions of IP[1..] are non-negative and sum to at most
// 1 + core.FractionTolerance. On the two-IP page this renders an f just
// above 1, which a strict f <= 1 used to reject.
func TestFractionRule(t *testing.T) {
	h := Handler()
	for _, tc := range []struct {
		target string
		ok     bool
	}{
		{"/?f=1", true},
		{"/?f=1.0000000005", true},
		{"/?f=1.000000002", false},
		{"/three?f1=0.6&f2=0.4000000005", true},
		{"/three?f1=0.6&f2=0.400000002", false},
	} {
		body := serve(h, http.MethodGet, tc.target, "").Body.String()
		rendered := strings.Contains(body, "</svg>") && !strings.Contains(body, `class="err"`)
		if rendered != tc.ok {
			t.Errorf("%s: rendered %v, want %v", tc.target, rendered, tc.ok)
		}
	}
}

// TestHandlerServesPages reads the pages for what they mean; the goldens
// (page_test.go) pin their bytes.
func TestHandlerServesPages(t *testing.T) {
	h := Handler()
	for _, tc := range []struct {
		name string
		path string
		want []string
	}{
		{"two-IP default", "/", []string{"Gables", "1.328 Gops/s", "</svg>", "memory interface"}},
		{"two-IP Figure 6d", "/?bpeak=20&i1=8", []string{"160 Gops/s"}}, // balanced
		{"two-IP error", "/?f=5", []string{"must be in [0,1]"}},         // an error renders as a page
		{"three-IP default", "/three", []string{"three-IP", "IP[2]", "</svg>", `<a href="/">`}},
		{"three-IP error", "/three?f1=0.9&f2=0.9", []string{"fractions must be non-negative"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := serve(h, http.MethodGet, tc.path, "")
			if rec.Code != http.StatusOK {
				t.Errorf("%s: status %d", tc.path, rec.Code)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "text/html; charset=utf-8" {
				t.Errorf("%s: content type %q", tc.path, ct)
			}
			for _, want := range tc.want {
				if !strings.Contains(rec.Body.String(), want) {
					t.Errorf("%s: page missing %q", tc.path, want)
				}
			}
		})
	}
}

func TestHandlerNotFound(t *testing.T) {
	h := Handler()
	for _, path := range []string{"/nope", "/three/x"} {
		if rec := serve(h, http.MethodGet, path, ""); rec.Code != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, rec.Code)
		}
	}
}
