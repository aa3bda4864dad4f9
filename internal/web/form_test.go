package web

import (
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// getPage fetches one page off h and returns status + body.
func getPage(h http.Handler, path string) (int, string) {
	rec := serve(h, http.MethodGet, path, "")
	return rec.Code, rec.Body.String()
}

// Malformed numeric inputs used to be silently swallowed (the field kept
// its default and the page gave no hint); both pages must now name the
// rejected field while still rendering a working page from the defaults.
func TestFormErrorsSurfaced(t *testing.T) {
	cases := []struct {
		name, path string
		wantErrs   []string // substrings the page must show
		wantResult bool     // the result block must still render
	}{
		{"two-ip garbage", "/?ppeak=banana", []string{"ppeak=banana", "not a number"}, true},
		{"two-ip inf", "/?bpeak=Inf", []string{"bpeak=Inf", "finite"}, true},
		{"two-ip negative inf", "/?i0=-Inf", []string{"i0=-Inf", "finite"}, true},
		{"two-ip nan", "/?f=NaN", []string{"f=NaN", "finite"}, true},
		{"two-ip multiple", "/?a=x&b0=y", []string{"a=x", "b0=y"}, true},
		{"two-ip empty is fine", "/?ppeak=", nil, true},
		{"two-ip clean", "/?ppeak=50", nil, true},
		{"three-ip garbage", "/three?b2=garbage", []string{"b2=garbage", "not a number"}, true},
		{"three-ip nan", "/three?f1=nan", []string{"f1=nan", "finite"}, true},
		{"three-ip inf", "/three?i2=%2BInf", []string{"finite"}, true},
		{"three-ip empty is fine", "/three?i2=", nil, true},
	}
	h := Handler()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := getPage(h, tc.path)
			if status != http.StatusOK {
				t.Fatalf("status = %d, want 200", status)
			}
			for _, want := range tc.wantErrs {
				if !strings.Contains(body, want) {
					t.Errorf("page must report %q; body lacks it", want)
				}
			}
			if tc.wantErrs == nil && strings.Contains(body, "rejected") {
				t.Error("clean submission must not show form errors")
			}
			if tc.wantResult && !strings.Contains(body, "attainable") {
				t.Error("page must still render a result from the defaults")
			}
		})
	}
}

// TestParseParams: each field the query sets takes its value, a field it
// cannot use keeps its default and is reported, in form order, and the
// page's defaults are never written. Non-finite values are rejected at
// the form boundary: ParseFloat accepts "NaN", and NaN fails every `<= 0`
// range check, so it would otherwise reach the model.
func TestParseParams(t *testing.T) {
	values := func(pg *page, p pageParams) map[string]float64 {
		m := map[string]float64{}
		for _, fields := range [][]field{pg.Hardware, pg.Usecase} {
			for _, f := range fields {
				m[f.Key] = p.Value(f)
			}
		}
		return m
	}
	defaults := map[*page]map[string]float64{}
	for _, pg := range pages {
		defaults[pg] = values(pg, pg.defaults)
	}
	for _, tc := range []struct {
		pg     *page
		target string
		set    map[string]float64 // fields that take the submitted value
		errs   []string           // fields reported as form errors
	}{
		{twoIP, "/?ppeak=banana&f=0.5", map[string]float64{"f": 0.5}, []string{"ppeak"}},
		{twoIP, "/?ppeak=NaN&bpeak=Inf&f=-Inf", nil, []string{"ppeak", "bpeak", "f"}},
		{threeIP, "/three?a1=NaN&f2=Inf", nil, []string{"a1", "f2"}},
		{threeIP, "/three?a1=3&i2=0.5", map[string]float64{"a1": 3, "i2": 0.5}, nil},
	} {
		p, ferrs := tc.pg.parse(httptest.NewRequest("GET", tc.target, nil))
		want := maps.Clone(defaults[tc.pg])
		maps.Copy(want, tc.set)
		if got := values(tc.pg, p); !maps.Equal(got, want) {
			t.Errorf("%s: params %v, want %v", tc.target, got, want)
		}
		var fields []string
		for _, fe := range ferrs {
			fields = append(fields, fe.Field)
		}
		if !slices.Equal(fields, tc.errs) {
			t.Errorf("%s: form errors %+v, want one each for %v", tc.target, ferrs, tc.errs)
		}
		if got := values(tc.pg, tc.pg.defaults); !maps.Equal(got, defaults[tc.pg]) {
			t.Fatalf("%s: parsing wrote the page's defaults: %v", tc.target, got)
		}
	}
}

// Form errors are presentation state: the cached evaluation for the same
// parameters must not replay a previous request's errors.
func TestFormErrorsNotCached(t *testing.T) {
	h := Handler()
	// First request: garbage field → default params evaluation + error.
	status, body := getPage(h, "/?ppeak=banana")
	if status != http.StatusOK || !strings.Contains(body, "ppeak=banana") {
		t.Fatalf("first request must surface the error (status %d)", status)
	}
	// Second request, to the same handler: same effective params (all
	// defaults), clean form, so a page-cache hit. A poisoned cache entry
	// would replay "ppeak=banana" here.
	status, body = getPage(h, "/")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if strings.Contains(body, "rejected") {
		t.Error("cache replayed a previous request's form errors")
	}
	if st := webStats(t, h); st.Hits != 1 {
		t.Errorf("page cache %+v: the second request must be a hit", st)
	}
}
