package web

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/pages and testdata/answers from the current handler")

// pagesDir holds one full HTML body per pageCases entry. A change that
// means to move a page regenerates them with
//
//	go test ./internal/web -run TestPageGoldens -update
//
// and says why in CHANGES.md.
const pagesDir = "testdata/pages"

// pageCases are the interactive-page requests whose bytes are pinned.
var pageCases = []struct{ file, path string }{
	{"two-default.html", "/"},
	{"two-fig6d.html", "/?bpeak=20&i1=8"}, // Figure 6d: balanced 160 Gops/s
	{"two-f-out-of-range.html", "/?f=5"},
	{"two-garbage.html", "/?ppeak=banana"},
	{"two-garbage-twice.html", "/?a=x&b0=y"},
	{"three-default.html", "/three"},
	{"three-full-split.html", "/three?f1=0.9&f2=0.1"}, // f1+f2 = 1.0000000000000002 in float64
	{"three-idle-ip.html", "/three?f2=0"},
	{"three-fractions-over.html", "/three?f1=0.9&f2=0.9"},
	{"three-garbage.html", "/three?b2=garbage"},
	{"three-plus-inf.html", "/three?i2=%2BInf"},
}

// TestPageGoldens renders each case twice on one handler, a page-cache
// miss and then a hit, and compares both bodies with the committed file;
// each case is a subtest named after its file. A file no case produces
// fails too, so a dropped case cannot leave its golden behind unchecked.
func TestPageGoldens(t *testing.T) {
	h := NewHandler(Options{})
	produced := map[string]bool{}
	for _, tc := range pageCases {
		produced[tc.file] = true
		t.Run(tc.file, func(t *testing.T) {
			golden := filepath.Join(pagesDir, tc.file)
			for pass := 0; pass < 2; pass++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", tc.path, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("%s: status %d", tc.path, rec.Code)
					break
				}
				got := rec.Body.Bytes()
				if *update {
					if err := os.MkdirAll(pagesDir, 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(golden, got, 0o644); err != nil {
						t.Fatal(err)
					}
					break
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Errorf("%s: %v", tc.path, err)
					break
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s (pass %d): body differs from %s from byte %d on", tc.path, pass, golden, firstDiff(got, want))
				}
			}
		})
	}
	entries, err := os.ReadDir(pagesDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !produced[e.Name()] {
			t.Errorf("%s: no case produces it", filepath.Join(pagesDir, e.Name()))
		}
	}
}

// firstDiff is the offset of the first byte where a and b differ.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
