// Command gables-lint runs the repository's analyzer suite
// (internal/analysis/...) over Go packages and reports every finding that
// is not excused by a //lint:ignore directive. CI runs it as a blocking
// step:
//
//	go run ./cmd/gables-lint ./...
//
// Findings print as file:line:col text by default; -json emits the same
// findings as a machine-readable array (stable field order), and
// -sarif <file> additionally writes a SARIF 2.1.0 log for GitHub code
// scanning. -fix applies the suggested fixes some diagnostics carry
// (stale-directive deletion, //fp:lock refreshes) and reports what it
// changed; rerun afterwards to confirm the tree is clean.
//
// The tool type-checks each target package from source; imports are
// satisfied from compiled export data produced by `go list -export`, so a
// run needs no network access and no dependencies beyond the Go
// toolchain. Exit status is 0 when the tree is clean, 1 when there are
// findings (fixed or not), 2 on operational errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/gables-model/gables/internal/analysis"
	"github.com/gables-model/gables/internal/analysis/suite"
)

const infoURI = "https://github.com/gables-model/gables"

func main() {
	var (
		list      = flag.Bool("list", false, "list the analyzers and exit")
		only      = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		tests     = flag.Bool("tests", true, "also analyze _test.go files")
		jsonOut   = flag.Bool("json", false, "emit findings as a JSON array on stdout instead of text")
		sarifPath = flag.String("sarif", "", `also write a SARIF 2.1.0 log to this file ("-" for stdout)`)
		fix       = flag.Bool("fix", false, "apply suggested fixes (stale directives, //fp:lock refreshes) in place")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: gables-lint [flags] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the Gables analyzer suite; see DESIGN.md §5 and §10.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range suite.All {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := suite.All
	if *only != "" {
		var ok bool
		analyzers, ok = suite.ByName(strings.Split(*only, ",")...)
		if !ok {
			fmt.Fprintf(os.Stderr, "gables-lint: unknown analyzer in -only=%s (use -list)\n", *only)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := Lint(".", patterns, analyzers, Options{Tests: *tests, Fix: *fix})
	if err != nil {
		fmt.Fprintf(os.Stderr, "gables-lint: %v\n", err)
		os.Exit(2)
	}

	if *jsonOut {
		if err := analysis.WriteJSON(os.Stdout, findings); err != nil {
			fmt.Fprintf(os.Stderr, "gables-lint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if *sarifPath != "" {
		if err := writeSARIF(*sarifPath, findings); err != nil {
			fmt.Fprintf(os.Stderr, "gables-lint: %v\n", err)
			os.Exit(2)
		}
	}
	if n := len(findings); n > 0 {
		fixed := 0
		for _, f := range findings {
			if f.Fixed {
				fixed++
			}
		}
		if fixed > 0 {
			fmt.Fprintf(os.Stderr, "gables-lint: %d finding(s), %d fixed in place — rerun to confirm\n", n, fixed)
		} else {
			fmt.Fprintf(os.Stderr, "gables-lint: %d finding(s)\n", n)
		}
		os.Exit(1)
	}
}

func writeSARIF(path string, findings []analysis.Finding) error {
	w := io.Writer(os.Stdout)
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return analysis.WriteSARIF(w, "gables-lint", infoURI, suite.Rules(), findings)
}

// Options tune a Lint run.
type Options struct {
	// Tests includes _test.go files (in-package and external).
	Tests bool
	// Fix applies each diagnostic's first suggested fix in place.
	Fix bool
}

// unit is one type-check target: a package's ordinary compilation or its
// external _test package.
type unit struct {
	path     string   // import path to check under
	files    []string // absolute source file names
	xtestFor string   // for external test units: path of the package under test
}

// Lint runs the analyzers over the packages matching patterns (resolved
// relative to dir) and returns the findings with repo-relative,
// slash-separated paths, sorted by position. The unused-directive
// staleness check is active only when the full suite runs, since a
// filtered run cannot tell a stale directive from one aimed at an
// analyzer that was skipped.
func Lint(dir string, patterns []string, analyzers []*analysis.Analyzer, opt Options) ([]analysis.Finding, error) {
	listed, err := analysis.GoList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	idx := analysis.NewExportIndex(listed)
	opts := analysis.RunOptions{ReportUnused: len(analyzers) == len(suite.All)}

	var units []unit
	for _, p := range listed {
		if p.Standard || p.DepOnly || p.Module == nil || p.ForTest != "" || p.IsTestBinary() {
			continue
		}
		files := absFiles(p.Dir, p.GoFiles)
		if opt.Tests {
			files = append(files, absFiles(p.Dir, p.TestGoFiles)...)
		}
		if len(files) > 0 {
			units = append(units, unit{path: p.ImportPath, files: files})
		}
		if opt.Tests && len(p.XTestGoFiles) > 0 {
			units = append(units, unit{
				path:     p.ImportPath + "_test",
				files:    absFiles(p.Dir, p.XTestGoFiles),
				xtestFor: p.ImportPath,
			})
		}
	}
	sort.Slice(units, func(i, j int) bool { return units[i].path < units[j].path })

	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	var findings []analysis.Finding
	for _, u := range units {
		// Each unit gets its own loader: an external _test package must
		// import the test-variant export of the package under test (it
		// may use helpers declared in in-package _test.go files), and
		// loaders cache imports by path.
		loader := analysis.NewLoader()
		loader.Lookup = idx.Lookup(u.xtestFor)
		pkg, err := loader.CheckFiles(u.path, u.files)
		if err != nil {
			return findings, err
		}
		diags, err := analysis.Run(pkg, analyzers, opts)
		if err != nil {
			return findings, err
		}
		var fixed []bool
		if opt.Fix {
			if fixed, _, err = analysis.ApplyFixes(pkg.Fset, diags); err != nil {
				return findings, err
			}
		}
		for i, d := range diags {
			pos := d.Position(pkg.Fset)
			name := pos.Filename
			if rel, err := filepath.Rel(absDir, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				name = filepath.ToSlash(rel)
			}
			f := analysis.Finding{
				File:     name,
				Line:     pos.Line,
				Column:   pos.Column,
				Analyzer: d.Analyzer,
				Severity: d.Severity.String(),
				Message:  d.Message,
			}
			if fixed != nil {
				f.Fixed = fixed[i]
			}
			findings = append(findings, f)
		}
	}
	return findings, nil
}

func absFiles(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = filepath.Join(dir, n)
	}
	return out
}
