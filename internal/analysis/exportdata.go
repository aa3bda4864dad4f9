package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// ListedPackage is the slice of `go list -json` output the lint driver
// consumes. With -test, the go tool also reports test variants: an entry
// with ForTest set is the package rebuilt for its test binary (its export
// data additionally contains symbols declared in in-package _test.go
// files), and an entry whose Name ends in _test is an external test
// package.
type ListedPackage struct {
	ImportPath   string
	Dir          string
	Export       string
	ForTest      string
	Name         string
	Standard     bool
	DepOnly      bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Module       *struct{ Path, Dir string }
}

// IsTestBinary reports whether this entry is a synthesized test main
// package ("foo.test"), which has no source of its own worth analyzing.
func (p *ListedPackage) IsTestBinary() bool {
	return strings.HasSuffix(p.ImportPath, ".test") && p.Name == "main"
}

// GoList runs `go list -export -deps -test -json patterns...` in dir and
// decodes the package stream. Export data files land in the build cache,
// so the call doubles as the compile step that makes Lookup-based
// importing possible without network access.
func GoList(dir string, patterns ...string) ([]*ListedPackage, error) {
	args := append([]string{"list", "-export", "-deps", "-test", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("analysis: go list: %v", err)
	}
	var pkgs []*ListedPackage
	dec := json.NewDecoder(out)
	for {
		p := new(ListedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			cmd.Wait()
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.String())
	}
	return pkgs, nil
}

// ExportIndex maps import paths to compiled export data files.
type ExportIndex struct {
	// plain holds the ordinary build of each package.
	plain map[string]string
	// forTest holds the test variant (in-package _test.go symbols
	// included), keyed by the path of the package under test.
	forTest map[string]string
}

// NewExportIndex builds an index over a go list result.
func NewExportIndex(pkgs []*ListedPackage) *ExportIndex {
	idx := &ExportIndex{plain: map[string]string{}, forTest: map[string]string{}}
	for _, p := range pkgs {
		if p.Export == "" {
			continue
		}
		if p.ForTest != "" {
			if !strings.HasSuffix(p.Name, "_test") { // variant of the package itself
				idx.forTest[p.ForTest] = p.Export
			}
			continue
		}
		if !strings.Contains(p.ImportPath, " ") {
			idx.plain[p.ImportPath] = p.Export
		}
	}
	return idx
}

// Lookup returns a go/importer lookup function. When preferTestVariant is
// non-empty, imports of exactly that path are served the test-variant
// export data, which an external _test package needs to see helpers its
// in-package half declares.
func (idx *ExportIndex) Lookup(preferTestVariant string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		if path == preferTestVariant {
			if f, ok := idx.forTest[path]; ok {
				return os.Open(f)
			}
		}
		if f, ok := idx.plain[path]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("analysis: no export data for %q", path)
	}
}
