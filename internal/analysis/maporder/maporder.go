// Package maporder flags iteration over Go maps inside functions that
// produce user-visible output (CSV rows, plot series, report tables, web
// responses, formatted strings). Go randomizes map iteration order, so
// such a loop makes output differ run to run — which gables-repro's
// determinism and manifest tests (-j 1 vs -j 8, and committed digests)
// turn into a hard failure. The fix is the sorted-keys pattern: collect
// keys, sort, then iterate the slice; the analyzer recognizes that
// pattern and stays quiet.
package maporder

import (
	"go/ast"
	"go/types"
	"regexp"

	"github.com/gables-model/gables/internal/analysis"
)

// Analyzer is the maporder rule.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flags ranging over a map in output-producing code; map order is randomized and " +
		"breaks byte-identical repro output — collect and sort the keys first",
	Run: run,
}

// sinkNames are callee names that emit user-visible output (or build the
// strings that will become it).
var sinkNames = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
	"Sprint": true, "Sprintf": true, "Sprintln": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteAll": true, "AddRow": true, "Render": true,
}

// collectCallees are the only calls allowed inside a key-collecting loop
// body for it to count as order-insensitive.
var collectCallees = map[string]bool{
	"append": true, "len": true, "cap": true, "copy": true,
	"delete": true, "min": true, "max": true,
}

var sortName = regexp.MustCompile(`(?i)sort`)

func run(pass *analysis.Pass) error {
	analysis.WalkFuncs(pass.Files, func(_ string, body *ast.BlockStmt) {
		funcHasSink := containsSink(pass, body)
		funcHasSort := containsSort(pass, body)
		analysis.InspectShallow(body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if _, isMap := pass.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
				return true
			}
			switch {
			case containsSink(pass, rs.Body):
				pass.Reportf(rs.For,
					"writing output while ranging over map %s; iteration order is randomized and the output is not reproducible — collect and sort the keys, then emit",
					types.ExprString(rs.X))
			case funcHasSink && !(funcHasSort && collectOnly(pass, rs.Body)):
				pass.Reportf(rs.For,
					"ranging over map %s in a function that writes output; iteration order is randomized — use the sorted-keys pattern (collect, sort, range the slice)",
					types.ExprString(rs.X))
			}
			return true
		})
	})
	return nil
}

func containsSink(pass *analysis.Pass, n ast.Node) bool {
	found := false
	analysis.InspectShallow(n, func(c ast.Node) bool {
		if call, ok := c.(*ast.CallExpr); ok {
			if name, _, ok := analysis.CalleeName(pass.TypesInfo, call); ok && sinkNames[name] {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}

func containsSort(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	analysis.InspectShallow(body, func(c ast.Node) bool {
		if call, ok := c.(*ast.CallExpr); ok {
			if name, pkg, ok := analysis.CalleeName(pass.TypesInfo, call); ok {
				if pkg == "sort" || pkg == "slices" || sortName.MatchString(name) {
					found = true
					return false
				}
			}
		}
		return !found
	})
	return found
}

// collectOnly reports whether the loop body only gathers elements
// (appends, map writes, counters, deletes) — the first half of the
// sorted-keys pattern — rather than doing order-sensitive work directly.
func collectOnly(pass *analysis.Pass, body *ast.BlockStmt) bool {
	ok := true
	analysis.InspectShallow(body, func(c ast.Node) bool {
		call, isCall := c.(*ast.CallExpr)
		if !isCall {
			return ok
		}
		if tv, isType := pass.TypesInfo.Types[call.Fun]; isType && tv.IsType() {
			return ok // type conversion
		}
		if name, _, named := analysis.CalleeName(pass.TypesInfo, call); !named || !collectCallees[name] {
			ok = false
		}
		return ok
	})
	return ok
}
