package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/gables-model/gables/internal/analysis"
	"github.com/gables-model/gables/internal/analysis/suite"
)

// writeModule lays out a throwaway module on disk so Lint exercises the
// same `go list -export` + type-check path that CI uses, rather than a
// mocked loader.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func lintAll(t *testing.T, dir string, opt Options) []analysis.Finding {
	t.Helper()
	findings, err := Lint(dir, []string{"./..."}, suite.All, opt)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

func TestLintReportsSeededViolation(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/seeded\n\ngo 1.22\n",
		"seeded.go": `package seeded

// Match mirrors the pre-fix tag-match bug from internal/experiments.
func Match(frac float64) bool {
	return frac == 0.8
}
`,
	})
	findings := lintAll(t, dir, Options{Tests: true})
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.File != "seeded.go" || f.Line != 5 || f.Analyzer != "floatcmp" || f.Severity != "error" {
		t.Errorf("finding not attributed to seeded.go:5 / floatcmp / error: %+v", f)
	}
}

func TestLintHonorsSuppression(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/sup\n\ngo 1.22\n",
		"sup.go": `package sup

func Match(frac float64) bool {
	//lint:ignore floatcmp exact sentinel by contract
	return frac == 0.8
}
`,
	})
	if findings := lintAll(t, dir, Options{Tests: true}); len(findings) != 0 {
		t.Fatalf("findings = %d, want 0 (suppressed): %v", len(findings), findings)
	}
}

func TestLintReportsStaleDirective(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/stale\n\ngo 1.22\n",
		"stale.go": `package stale

func Fine(a, b int) bool {
	//lint:ignore floatcmp nothing here actually trips the analyzer
	return a == b
}
`,
	})
	findings := lintAll(t, dir, Options{Tests: true})
	if len(findings) != 1 || !strings.Contains(findings[0].Message, "unused //lint: directive") {
		t.Fatalf("findings = %v, want 1 stale-directive report", findings)
	}
	if findings[0].Severity != "warning" {
		t.Errorf("stale-directive severity = %q, want warning", findings[0].Severity)
	}
}

func TestLintSkipsStaleCheckWhenFiltered(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/filtered\n\ngo 1.22\n",
		"f.go": `package filtered

func Fine(a, b int) bool {
	//lint:ignore floatcmp aimed at an analyzer this run skips
	return a == b
}
`,
	})
	only, ok := suite.ByName("maporder")
	if !ok {
		t.Fatal("maporder analyzer missing from suite")
	}
	findings, err := Lint(dir, []string{"./..."}, only, Options{Tests: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("filtered run reported %d finding(s); a partial run cannot judge staleness:\n%v", len(findings), findings)
	}
}

// TestLintRepositoryClean is the in-process twin of CI's blocking
// `go run ./cmd/gables-lint ./...` step: the tree must lint clean under
// the full suite, including the stale-directive meta-check.
func TestLintRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repository lint is not a short test")
	}
	findings := lintAll(t, filepath.Join("..", ".."), Options{Tests: true})
	for _, f := range findings {
		t.Errorf("repository lint finding (fix it or add //lint:ignore with a reason): %s", f)
	}
}

func TestLintTestFlagExcludesTestFiles(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/tf\n\ngo 1.22\n",
		"tf.go":  "package tf\n",
		"tf_test.go": `package tf

import "fmt"

// dump trips maporder, which (unlike floatcmp) applies to test files too.
func dump(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v)
	}
}
`,
	})
	if findings := lintAll(t, dir, Options{Tests: false}); len(findings) != 0 {
		t.Fatalf("tests=false still analyzed _test.go files: %v", findings)
	}
	findings := lintAll(t, dir, Options{Tests: true})
	if len(findings) != 1 || findings[0].Analyzer != "maporder" {
		t.Fatalf("tests=true run = %v, want the 1 maporder hit", findings)
	}
}

// TestLintTestOnlyPackage covers the suite-runner edge case of a package
// directory holding nothing but test files: it must be analyzed when
// tests are on, skipped cleanly (no error, no findings) when off.
func TestLintTestOnlyPackage(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/onlytests\n\ngo 1.22\n",
		"probe/probe_test.go": `package probe

import "fmt"

func dump(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v)
	}
}
`,
	})
	if findings := lintAll(t, dir, Options{Tests: false}); len(findings) != 0 {
		t.Fatalf("tests=false found %v in a test-only package", findings)
	}
	findings := lintAll(t, dir, Options{Tests: true})
	if len(findings) != 1 || findings[0].Analyzer != "maporder" || findings[0].File != "probe/probe_test.go" {
		t.Fatalf("test-only package findings = %v, want 1 maporder hit in probe/probe_test.go", findings)
	}
}

// TestLintSkipsDependencies lints one package pattern. `go list -deps`
// also returns the packages it imports; those are not targets, so their
// findings are not reported and their test files are not type-checked.
// Those test files may import packages outside the export index
// (net/http/httptest here), which then type-check from source against a
// second copy of net/http and fail.
func TestLintSkipsDependencies(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/deps\n\ngo 1.22\n",
		"dep/dep.go": `package dep

import "net/http"

// Handle is a no-op handler.
func Handle(w http.ResponseWriter, r *http.Request) {}

// Match is a finding the target's run must not report.
func Match(frac float64) bool { return frac == 0.8 }
`,
		"dep/dep_test.go": `package dep

import (
	"net/http/httptest"
	"testing"
)

func TestHandle(t *testing.T) {
	Handle(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
}
`,
		"target/target.go": `package target

import "example.com/deps/dep"

// Handle forwards to dep.
var Handle = dep.Handle
`,
	})
	findings, err := Lint(dir, []string{"./target"}, suite.All, Options{Tests: true})
	if err != nil {
		t.Fatalf("linting ./target: %v", err)
	}
	if len(findings) != 0 {
		t.Errorf("linting ./target reported %v, want nothing from its dependency", findings)
	}
}

// TestLintZeroFindingsEverywhere covers the all-clean path: every
// analyzer runs and returns nothing, and the (nil) finding list still
// serializes as an empty JSON array.
func TestLintZeroFindingsEverywhere(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":   "module example.com/clean\n\ngo 1.22\n",
		"clean.go": "package clean\n\n// Nothing reports anything here.\nfunc Add(a, b int) int { return a + b }\n",
	})
	findings := lintAll(t, dir, Options{Tests: true})
	if len(findings) != 0 {
		t.Fatalf("clean module produced findings: %v", findings)
	}
	var buf bytes.Buffer
	if err := analysis.WriteJSON(&buf, findings); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Errorf("zero findings serialized as %q, want []", buf.String())
	}
}

// TestLintOverlappingSuppressionsOneLine pins the resolution order when
// two directives cover the same diagnostic line: the first in source
// order (the line-above form) claims the diagnostic, and the trailing
// same-line directive is reported stale rather than silently double
// counted.
func TestLintOverlappingSuppressionsOneLine(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/overlap\n\ngo 1.22\n",
		"o.go": `package overlap

func Match(frac float64) bool {
	//lint:ignore floatcmp first form: claims the diagnostic below
	return frac == 0.8 //lint:ignore floatcmp second form on the same line: never consulted
}
`,
	})
	findings := lintAll(t, dir, Options{Tests: true})
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly the stale second directive", findings)
	}
	f := findings[0]
	if !strings.Contains(f.Message, "unused //lint: directive") || f.Line != 5 {
		t.Errorf("overlapping suppression resolution changed: %+v", f)
	}
}

// TestLintFixDeletesStaleDirective exercises the -fix pipeline
// end-to-end: the stale directive is deleted in place, the finding is
// marked Fixed, and a rerun comes back clean.
func TestLintFixDeletesStaleDirective(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/fixme\n\ngo 1.22\n",
		"fixme.go": `package fixme

func Fine(a, b int) bool {
	//lint:ignore floatcmp stale: ints never trip floatcmp
	return a == b
}
`,
	})
	findings := lintAll(t, dir, Options{Tests: true, Fix: true})
	if len(findings) != 1 || !findings[0].Fixed {
		t.Fatalf("fix run findings = %v, want 1 finding marked fixed", findings)
	}
	src, err := os.ReadFile(filepath.Join(dir, "fixme.go"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(src), "lint:ignore") {
		t.Errorf("stale directive survived -fix:\n%s", src)
	}
	if strings.Contains(string(src), "\n\n\treturn") {
		t.Errorf("-fix left a blank-line residue:\n%s", src)
	}
	if rerun := lintAll(t, dir, Options{Tests: true}); len(rerun) != 0 {
		t.Errorf("tree not clean after -fix: %v", rerun)
	}
}
