package web

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// answersFile holds one SHA-256 line per (endpoint, backend, chip) group
// of answerGroups, in `sha256sum -c` format: the digest of every response
// body the group's questions get, in order. A change that means to move
// an answer regenerates it with
//
//	go test ./internal/web -run TestAnswerGoldens -update
//
// and says in CHANGES.md which groups moved and why.
const answersFile = "testdata/answers"

// answerSeed seeds the f draws; the questions never change with it fixed.
const answerSeed = 42

// answerItem is one question, spelled as an /eval/batch item.
type answerItem struct {
	Chip    string  `json:"chip"`
	Backend string  `json:"backend"`
	F       float64 `json:"f"`
	FPW     int     `json:"fpw"`
}

func (q answerItem) url() string {
	return "/eval?chip=" + q.Chip + "&backend=" + q.Backend +
		"&f=" + strconv.FormatFloat(q.F, 'f', -1, 64) + "&fpw=" + strconv.Itoa(q.FPW)
}

// answerGroup is one (backend, chip) stratum's questions.
type answerGroup struct {
	backend, chip string
	items         []answerItem
}

// answerGroups draws the questions, stratified like perfbench's
// serve-point: every chip × backend × fpw {8, 32, 128, 512} gets one f
// from each of ten bands of 0.1–0.9, so 3 × 4 × 4 × 10 = 480 questions
// in 12 groups.
func answerGroups() []answerGroup {
	rng := rand.New(rand.NewSource(answerSeed))
	var groups []answerGroup
	for _, chip := range []string{"snapdragon835", "snapdragon821", "snapdragon835x"} {
		for _, backend := range []string{"analytic", "surrogate", "auto", "sim"} {
			g := answerGroup{backend: backend, chip: chip}
			for _, fpw := range []int{8, 32, 128, 512} {
				for band := 0; band < 10; band++ {
					f := float64(10+8*band+rng.Intn(8)) / 100
					g.items = append(g.items, answerItem{Chip: chip, Backend: backend, F: f, FPW: fpw})
				}
			}
			groups = append(groups, g)
		}
	}
	return groups
}

// TestAnswerGoldens asks every group through GET /eval (one request per
// question), buffered POST /eval/batch and NDJSON POST /eval/batch (one
// request per group each), as the named subtest <endpoint>/<backend>/<chip>,
// and compares the group's digest with its line in answersFile; each line
// that moved, is missing or is stale is named. A single ulp or a renamed
// bottleneck in any answer moves its group's line.
func TestAnswerGoldens(t *testing.T) {
	h := NewHandler(Options{})
	var want []byte
	var wantLines []digestLine
	wantSum := map[string]string{}
	if !*update {
		var err error
		if want, err = os.ReadFile(answersFile); err != nil {
			t.Fatal(err)
		}
		wantLines = digestLines(string(want))
		for _, l := range wantLines {
			wantSum[l.name] = l.sum
		}
	}
	groups := answerGroups()
	var got bytes.Buffer
	produced := map[string]bool{}
	for _, ep := range []struct{ name, target string }{
		{"eval", ""}, {"batch", "/eval/batch"}, {"ndjson", "/eval/batch?stream=1"},
	} {
		t.Run(ep.name, func(t *testing.T) {
			for _, g := range groups {
				name := ep.name + "/" + g.backend + "/" + g.chip
				produced[name] = true
				t.Run(g.backend+"/"+g.chip, func(t *testing.T) {
					sum := sha256.New()
					if ep.target == "" {
						for _, q := range g.items {
							sum.Write(getOK(t, h, q.url()))
						}
					} else {
						body, err := json.Marshal(struct {
							Items []answerItem `json:"items"`
						}{g.items})
						if err != nil {
							t.Fatal(err)
						}
						rec := serve(h, http.MethodPost, ep.target, string(body))
						if rec.Code != http.StatusOK {
							t.Fatalf("POST %s (%s on %s): status %d: %s", ep.target, g.backend, g.chip, rec.Code, rec.Body.Bytes())
						}
						sum.Write(rec.Body.Bytes())
					}
					digest := fmt.Sprintf("%x", sum.Sum(nil))
					fmt.Fprintf(&got, "%s  %s\n", digest, name)
					if *update {
						return
					}
					switch w, ok := wantSum[name]; {
					case !ok:
						t.Errorf("%s: no line in %s", name, answersFile)
					case w != digest:
						t.Errorf("%s: answers moved (digest %s, want %s)", name, digest, w)
					}
				})
			}
		})
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(answersFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(answersFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, l := range wantLines {
		if !produced[l.name] {
			t.Errorf("%s: in %s but no group produces it", l.name, answersFile)
		}
	}
	if !t.Failed() && !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s: same digests, different bytes (order or spacing)", answersFile)
	}
}

// digestLine is one `sha256sum -c` line: a digest and the name it covers.
type digestLine struct{ sum, name string }

// digestLines parses `sha256sum -c` lines in file order.
func digestLines(s string) []digestLine {
	var lines []digestLine
	for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
		if sum, name, ok := strings.Cut(line, "  "); ok {
			lines = append(lines, digestLine{sum, name})
		}
	}
	return lines
}
