// Package fpfields cross-checks fingerprint encoders against the struct
// definitions they encode. The repository's caches (internal/simcache, the
// web page cache) are content-addressed by sim.Fingerprint /
// eval.Fingerprint; a Config or Query field the encoder silently skips
// means two semantically different runs share one cache key — stale hits
// that no test catches until results diverge. This analyzer
// makes fingerprint completeness a compile-time property.
//
// # Annotation contract
//
// A function whose doc comment carries the directive
//
//	//fp:encoder
//
// is a fingerprint encoder root. Its parameter types, and every struct
// reachable from them through exported fields (across packages, through
// pointers, slices, arrays, maps, and embedded fields), form the encoded
// set. Every exported field of every encoded struct must be consumed
// somewhere in the encoder's call graph (same-package helpers included),
// unless annotated:
//
//	//fp:skip <why>               (on the field, same package)
//	//fp:skip pkg.Type.Field <why> (package-level, for imported structs)
//
// marks a field deliberately excluded (display labels, observe-only
// probes), and
//
//	//fp:delegate <why>            (same two forms)
//
// marks a field consumed wholesale by another package's own encoder — the
// field must still be referenced, but its struct type is not descended
// into (e.g. eval.Query.Chip delegates to sim.Fingerprint).
//
// # The shape lock
//
// The encoder's package must carry
//
//	//fp:lock v<version> <digest>
//
// (conventionally above its FingerprintVersion constant). The analyzer
// recomputes the digest over the encoded structs' shapes — qualified
// names, exported non-skipped fields, field types, in declaration order —
// and compares. Adding, removing, retyping, or renaming an encoded field
// changes the digest, and the finding clears only once FingerprintVersion
// has been bumped past the locked version and the lock refreshed
// (`gables-lint -fix` rewrites it once the bump is in place). That turns
// "added a Config field but forgot the cache key" from a latent stale-hit
// bug into a blocking diagnostic.
package fpfields

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"hash/fnv"
	"regexp"
	"sort"
	"strings"

	"github.com/gables-model/gables/internal/analysis"
)

// Analyzer is the fpfields rule.
var Analyzer = &analysis.Analyzer{
	Name: "fpfields",
	Doc: "cross-checks //fp:encoder fingerprint functions against the structs they encode: " +
		"every exported reachable field must be encoded or //fp:skip'd, and shape changes " +
		"must bump FingerprintVersion and refresh the //fp:lock",
	Run: run,
}

var (
	lockRE   = regexp.MustCompile(`^//fp:lock v(\d+) ([0-9a-f]{16})$`)
	remoteRE = regexp.MustCompile(`^[A-Za-z_]\w*(?:\.[A-Za-z_]\w*){1,2}$`)
)

// remoteDirective is a package-level //fp:skip or //fp:delegate naming a
// field by qualified name ("Type.Field" or "pkg.Type.Field").
type remoteDirective struct {
	kind   string // "skip" or "delegate"
	target string
	reason string
	pos    token.Pos
	used   bool
}

// lockDirective is a parsed //fp:lock comment.
type lockDirective struct {
	version int64
	digest  string
	pos     token.Pos
	end     token.Pos
}

type checker struct {
	pass     *analysis.Pass
	encoders []*ast.FuncDecl
	lock     *lockDirective
	remote   []*remoteDirective
	// attached maps a field object declared in this package to its
	// attached directive kind ("skip" or "delegate").
	attached map[*types.Var]string
	// decls indexes this package's function declarations for the
	// call-graph walk.
	decls map[*types.Func]*ast.FuncDecl
	// refs is the set of fields consumed in the encoders' call graphs.
	refs map[*types.Var]bool
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:     pass,
		attached: map[*types.Var]string{},
		decls:    map[*types.Func]*ast.FuncDecl{},
		refs:     map[*types.Var]bool{},
	}
	c.collect()
	if len(c.encoders) == 0 {
		return nil
	}
	c.buildRefs()

	structs := c.encodedStructs()
	for _, named := range structs {
		c.checkStruct(named)
	}
	c.checkLock(structs)
	for _, r := range c.remote {
		if !r.used {
			pass.Report(analysis.Diagnostic{
				Pos:      r.pos,
				Severity: analysis.SeverityWarning,
				Message: fmt.Sprintf("//fp:%s %s names no field of an encoded struct (stale directive?)",
					r.kind, r.target),
			})
		}
	}
	return nil
}

// collect scans the package for //fp: directives: encoder roots,
// field-attached skip/delegate annotations, package-level remote forms,
// and the shape lock.
func (c *checker) collect() {
	pass := c.pass
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				c.decls[fn] = fd
			}
			if hasDirective(fd.Doc, "//fp:encoder") {
				c.encoders = append(c.encoders, fd)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				kind, reason := fieldDirective(field)
				if kind == "" {
					continue
				}
				if reason == "" {
					pass.Reportf(field.Pos(), "//fp:%s needs a reason", kind)
					continue
				}
				for _, name := range field.Names {
					if fv, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						c.attached[fv] = kind
					}
				}
				if len(field.Names) == 0 {
					pass.Reportf(field.Pos(), "//fp:%s cannot annotate an embedded field; name the field explicitly", kind)
				}
			}
			return true
		})
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				c.collectComment(cm)
			}
		}
	}
}

// collectComment parses one comment for the package-level directive forms.
func (c *checker) collectComment(cm *ast.Comment) {
	text := cm.Text
	switch {
	case strings.HasPrefix(text, "//fp:lock"):
		m := lockRE.FindStringSubmatch(text)
		if m == nil {
			c.pass.Reportf(cm.Pos(), "malformed //fp:lock directive %q: want \"//fp:lock v<version> <16-hex digest>\"", text)
			return
		}
		if c.lock != nil {
			c.pass.Reportf(cm.Pos(), "duplicate //fp:lock directive (first at %s)", c.pass.Fset.Position(c.lock.pos))
			return
		}
		var ver int64
		fmt.Sscanf(m[1], "%d", &ver)
		c.lock = &lockDirective{version: ver, digest: m[2], pos: cm.Pos(), end: cm.End()}
	case strings.HasPrefix(text, "//fp:skip "), strings.HasPrefix(text, "//fp:delegate "):
		kind := "skip"
		rest := strings.TrimPrefix(text, "//fp:skip ")
		if strings.HasPrefix(text, "//fp:delegate ") {
			kind = "delegate"
			rest = strings.TrimPrefix(text, "//fp:delegate ")
		}
		target, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
		if !remoteRE.MatchString(target) || !strings.Contains(target, ".") {
			// Field-attached form ("//fp:skip <why>"): handled by the
			// struct walk in collect; nothing to record here.
			return
		}
		if strings.TrimSpace(reason) == "" {
			c.pass.Reportf(cm.Pos(), "//fp:%s %s needs a reason", kind, target)
			return
		}
		c.remote = append(c.remote, &remoteDirective{
			kind: kind, target: target, reason: strings.TrimSpace(reason), pos: cm.Pos(),
		})
	}
}

// fieldDirective returns the attached //fp:skip or //fp:delegate kind and
// reason from a field's doc or line comment, or "" if none. The
// field-attached form carries only a reason: a dotted first token means
// the comment is the package-level remote form and belongs elsewhere.
func fieldDirective(field *ast.Field) (kind, reason string) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, cm := range cg.List {
			for _, k := range []string{"skip", "delegate"} {
				prefix := "//fp:" + k
				if cm.Text == prefix {
					return k, ""
				}
				if rest, ok := strings.CutPrefix(cm.Text, prefix+" "); ok {
					first, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
					if remoteRE.MatchString(first) && strings.Contains(first, ".") {
						continue // remote form, not attached to this field
					}
					return k, strings.TrimSpace(rest)
				}
			}
		}
	}
	return "", ""
}

// buildRefs walks the encoders' transitive same-package call graphs and
// records every struct field the code consumes.
func (c *checker) buildRefs() {
	visited := map[*ast.FuncDecl]bool{}
	queue := append([]*ast.FuncDecl{}, c.encoders...)
	for len(queue) > 0 {
		fd := queue[0]
		queue = queue[1:]
		if visited[fd] || fd.Body == nil {
			continue
		}
		visited[fd] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if sel, ok := c.pass.TypesInfo.Selections[x]; ok && sel.Kind() == types.FieldVal {
					c.refs[sel.Obj().(*types.Var)] = true
					// Promoted fields traverse embedded structs the
					// selection index records; mark those hops too.
					recordIndexPath(c.pass, sel, c.refs)
				}
			case *ast.CallExpr:
				var id *ast.Ident
				switch fun := ast.Unparen(x.Fun).(type) {
				case *ast.Ident:
					id = fun
				case *ast.SelectorExpr:
					id = fun.Sel
				}
				if id != nil {
					if fn, ok := c.pass.TypesInfo.Uses[id].(*types.Func); ok && fn.Pkg() == c.pass.Pkg {
						if next, ok := c.decls[fn]; ok && !visited[next] {
							queue = append(queue, next)
						}
					}
				}
			}
			return true
		})
	}
}

// recordIndexPath marks the intermediate fields a promoted-field selection
// passes through (x.Promoted traverses the embedded field too).
func recordIndexPath(pass *analysis.Pass, sel *types.Selection, refs map[*types.Var]bool) {
	t := sel.Recv()
	for _, idx := range sel.Index() {
		t = derefType(t)
		st, ok := t.Underlying().(*types.Struct)
		if !ok || idx >= st.NumFields() {
			return
		}
		fv := st.Field(idx)
		refs[fv] = true
		t = fv.Type()
	}
}

func derefType(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// encodedStructs computes the reachable struct set from the encoders'
// parameters through exported and embedded fields, honoring skip (no
// descent, excluded) and delegate (no descent) annotations, sorted by
// qualified name for determinism. An unexported field is never walked:
// a struct reachable only through one is not encoded.
func (c *checker) encodedStructs() []*types.Named {
	seen := map[types.Type]bool{}
	found := map[*types.Named]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch x := t.(type) {
		case *types.Pointer:
			walk(x.Elem())
		case *types.Slice:
			walk(x.Elem())
		case *types.Array:
			walk(x.Elem())
		case *types.Map:
			walk(x.Key())
			walk(x.Elem())
		case *types.Named:
			st, ok := x.Underlying().(*types.Struct)
			if !ok {
				walk(x.Underlying())
				return
			}
			found[x] = true
			for i := 0; i < st.NumFields(); i++ {
				fv := st.Field(i)
				if fv.Embedded() {
					walk(fv.Type())
					continue
				}
				if !fv.Exported() {
					continue // not part of the encoded surface
				}
				switch c.fieldAnnotation(x, fv) {
				case "skip", "delegate":
					continue
				}
				walk(fv.Type())
			}
		}
	}
	for _, enc := range c.encoders {
		sig, ok := c.pass.TypesInfo.Defs[enc.Name].Type().(*types.Signature)
		if !ok {
			continue
		}
		for i := 0; i < sig.Params().Len(); i++ {
			walk(sig.Params().At(i).Type())
		}
	}
	out := make([]*types.Named, 0, len(found))
	for n := range found {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return qualifiedName(out[i]) < qualifiedName(out[j]) })
	return out
}

// fieldAnnotation resolves a field's skip/delegate annotation: attached
// (same-package declaration) or remote (package-level qualified form).
// Matching remote directives are marked used.
func (c *checker) fieldAnnotation(owner *types.Named, fv *types.Var) string {
	if kind, ok := c.attached[fv]; ok {
		return kind
	}
	keys := []string{qualifiedName(owner) + "." + fv.Name()}
	if owner.Obj().Pkg() == c.pass.Pkg {
		keys = append(keys, owner.Obj().Name()+"."+fv.Name())
	}
	for _, r := range c.remote {
		for _, k := range keys {
			if r.target == k {
				r.used = true
				return r.kind
			}
		}
	}
	return ""
}

// checkStruct verifies every exported field of one encoded struct is
// consumed by the encoders or annotated away.
func (c *checker) checkStruct(named *types.Named) {
	st := named.Underlying().(*types.Struct)
	local := named.Obj().Pkg() == c.pass.Pkg
	for i := 0; i < st.NumFields(); i++ {
		fv := st.Field(i)
		if !fv.Exported() || fv.Embedded() {
			continue
		}
		ann := c.fieldAnnotation(named, fv)
		if ann == "skip" {
			continue
		}
		if c.refs[fv] {
			continue
		}
		pos := c.encoders[0].Pos()
		if local && fv.Pos().IsValid() {
			pos = fv.Pos()
		}
		if ann == "delegate" {
			c.pass.Reportf(pos,
				"field %s.%s is marked //fp:delegate but the fingerprint encoder never consumes it",
				qualifiedName(named), fv.Name())
			continue
		}
		c.pass.Reportf(pos,
			"fingerprint does not encode %s.%s: a semantic field missing from the cache key means stale hits; "+
				"encode it (and bump FingerprintVersion) or annotate //fp:skip with a reason",
			qualifiedName(named), fv.Name())
	}
}

// checkLock verifies the //fp:lock digest/version pair against the
// current encoded shape and the package's FingerprintVersion constant.
// Mismatches are reported at the constant — the thing a shape change
// obliges the author to bump — while the suggested fix rewrites the lock
// comment itself.
func (c *checker) checkLock(structs []*types.Named) {
	digest := c.shapeDigest(structs)
	encPos := c.encoders[0].Pos()

	version, verPos, ok := c.fingerprintVersion()
	if !ok {
		c.pass.Reportf(encPos, "package has an //fp:encoder but no FingerprintVersion constant to version the encoding")
		return
	}
	if c.lock == nil {
		c.pass.Reportf(verPos,
			"missing //fp:lock directive: add \"//fp:lock v%d %s\" above the FingerprintVersion constant",
			version, digest)
		return
	}
	canonical := fmt.Sprintf("//fp:lock v%d %s", version, digest)
	fix := []analysis.SuggestedFix{{
		Message:   "refresh the fingerprint shape lock",
		TextEdits: []analysis.TextEdit{{Pos: c.lock.pos, End: c.lock.end, NewText: []byte(canonical)}},
	}}
	switch {
	case c.lock.digest == digest && c.lock.version == version:
		// In sync.
	case c.lock.digest == digest:
		c.pass.Report(analysis.Diagnostic{
			Pos: c.lock.pos,
			Message: fmt.Sprintf("//fp:lock records v%d but FingerprintVersion is %d; refresh the lock (gables-lint -fix)",
				c.lock.version, version),
			Fixes: fix,
		})
	case version > c.lock.version:
		// Shape changed and the version was bumped: only the bookkeeping
		// is left.
		c.pass.Report(analysis.Diagnostic{
			Pos: c.lock.pos,
			Message: fmt.Sprintf("encoded struct shape changed (digest %s, lock has %s) and FingerprintVersion was bumped; "+
				"refresh the lock (gables-lint -fix)", digest, c.lock.digest),
			Fixes: fix,
		})
	default:
		// Shape changed with no version bump: the dangerous case. No fix
		// is offered — bumping FingerprintVersion is the human's call.
		c.pass.Reportf(verPos,
			"encoded struct shape changed (digest %s, lock has %s) without a FingerprintVersion bump: "+
				"stale cache entries would keep matching the old semantics; bump FingerprintVersion above %d, "+
				"then refresh the lock (gables-lint -fix)",
			digest, c.lock.digest, c.lock.version)
	}
}

// fingerprintVersion returns the package's FingerprintVersion constant
// and its declaration position.
func (c *checker) fingerprintVersion() (int64, token.Pos, bool) {
	obj := c.pass.Pkg.Scope().Lookup("FingerprintVersion")
	cst, ok := obj.(*types.Const)
	if !ok {
		return 0, token.NoPos, false
	}
	v, ok := constant.Int64Val(constant.ToInt(cst.Val()))
	return v, cst.Pos(), ok
}

// shapeDigest hashes the encoded structs' semantic shape: qualified struct
// names in sorted order, then each struct's exported non-skipped fields in
// declaration order as name:type pairs (embedded fields as ~type markers —
// their own fields hash under their defining struct). The digest is
// deliberately insensitive to skipped fields, comments, and method sets:
// it changes exactly when the byte stream an encoder must produce changes.
func (c *checker) shapeDigest(structs []*types.Named) string {
	qual := func(p *types.Package) string { return p.Name() }
	var b strings.Builder
	for _, named := range structs {
		st := named.Underlying().(*types.Struct)
		b.WriteString(qualifiedName(named))
		b.WriteString("{")
		for i := 0; i < st.NumFields(); i++ {
			fv := st.Field(i)
			if !fv.Exported() {
				continue
			}
			if fv.Embedded() {
				b.WriteString("~" + types.TypeString(fv.Type(), qual) + ";")
				continue
			}
			if c.fieldAnnotation(named, fv) == "skip" {
				continue
			}
			b.WriteString(fv.Name() + ":" + types.TypeString(fv.Type(), qual) + ";")
		}
		b.WriteString("}\n")
	}
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return fmt.Sprintf("%016x", h.Sum64())
}

func qualifiedName(n *types.Named) string {
	if p := n.Obj().Pkg(); p != nil {
		return p.Name() + "." + n.Obj().Name()
	}
	return n.Obj().Name()
}

// hasDirective reports whether the comment group contains the exact
// directive line.
func hasDirective(cg *ast.CommentGroup, directive string) bool {
	if cg == nil {
		return false
	}
	for _, cm := range cg.List {
		if cm.Text == directive {
			return true
		}
	}
	return false
}
