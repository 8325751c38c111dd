// Package analyze is the repository's static-analysis layer: three custom
// analyzers that machine-check contracts no test holds — allocation-free
// hot paths (hotpath), mutex discipline on shared engine state (lockcheck),
// and joined-and-recovered goroutines (spawncheck). The contracts a test
// does hold (bit-reproducible placement, typed API errors, caller-context
// propagation) are left to those tests; PERFORMANCE.md names them.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, diagnostics, an analysistest-style corpus runner) but is
// built entirely on the standard library's go/ast + go/types, because this
// module deliberately carries zero external dependencies. Packages are
// loaded through `go list -json` and type-checked with the source importer,
// so the suite runs anywhere the go toolchain does.
//
// Contracts are annotated in source with marker comments:
//
//	//optchain:hotpath      function must not allocate steady-state
//	//optchain:locked       function's contract is "caller holds the mutex"
//	//optchain:alloc-ok     deliberate allocation on a hot path (cold branch,
//	                        amortized growth)
//	//optchain:detached     this goroutine is deliberately fire-and-forget
//	// guarded by <mu>      struct field only touched while <mu> is held
//
// Each marker must carry a justification in the rest of the comment; the
// analyzers enforce presence, review enforces honesty. The annotation
// grammar is documented in PERFORMANCE.md ("Static analysis & contracts").
package analyze

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects a single type-checked package
// through its Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and Makefile output.
	Name string
	// Doc is a one-paragraph description of the contract enforced.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass) error
}

// Pass carries one package's syntax, types, and annotation index through an
// analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Ann      *Annotations

	report func(Diagnostic)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding: where, what, and which analyzer said so.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// sortDiagnostics orders findings by (file, line, column, analyzer) so lint
// output is stable regardless of analyzer scheduling.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// RunAnalyzer executes one analyzer over a loaded package and returns its
// findings.
func RunAnalyzer(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	var out []Diagnostic
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Ann:      pkg.Ann,
		report:   func(d Diagnostic) { out = append(out, d) },
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
	}
	sortDiagnostics(out)
	return out, nil
}

// Verbs lists every recognized //optchain:<verb> annotation, in stable
// order — the grammar the package doc and PERFORMANCE.md document. The docs
// test keeps PERFORMANCE.md honest against this list.
func Verbs() []string {
	return []string{
		"alloc-ok",
		"detached",
		"hotpath",
		"locked",
	}
}

// markerRe extracts //optchain:<verb> markers. The verb may be followed by a
// free-form justification.
var markerRe = regexp.MustCompile(`optchain:([a-z-]+)`)

// guardedRe extracts the mutex path from a "guarded by <mu>" field comment.
// The path may be dotted ("guarded by parent.mu"): a field of this struct
// followed by field selections, for state guarded by an owning struct's
// mutex.
var guardedRe = regexp.MustCompile(`guarded by (\w+(?:\.\w+)*)`)

// Annotations indexes the marker comments of a package by file line, so
// analyzers can ask "is this node's line (or the line above it) annotated?"
// without rescanning comment lists.
type Annotations struct {
	fset *token.FileSet
	// byLine maps file -> line -> marker verbs present on that line.
	byLine map[string]map[int][]string
}

// NewAnnotations builds the marker index for a set of files.
func NewAnnotations(fset *token.FileSet, files []*ast.File) *Annotations {
	a := &Annotations{fset: fset, byLine: make(map[string]map[int][]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range markerRe.FindAllStringSubmatch(c.Text, -1) {
					pos := fset.Position(c.Pos())
					lines := a.byLine[pos.Filename]
					if lines == nil {
						lines = make(map[int][]string)
						a.byLine[pos.Filename] = lines
					}
					lines[pos.Line] = append(lines[pos.Line], m[1])
				}
			}
		}
	}
	return a
}

// Marked reports whether verb is annotated on the line of pos or on the line
// immediately above it (a trailing comment or a dedicated comment line).
func (a *Annotations) Marked(pos token.Pos, verb string) bool {
	p := a.fset.Position(pos)
	lines := a.byLine[p.Filename]
	if lines == nil {
		return false
	}
	for _, l := range [2]int{p.Line, p.Line - 1} {
		for _, v := range lines[l] {
			if v == verb {
				return true
			}
		}
	}
	return false
}

// docMarked reports whether a declaration's doc comment carries the verb.
func docMarked(doc *ast.CommentGroup, verb string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		for _, m := range markerRe.FindAllStringSubmatch(c.Text, -1) {
			if m[1] == verb {
				return true
			}
		}
	}
	return false
}

// FuncMarked reports whether fn's doc comment carries the verb.
func FuncMarked(fn *ast.FuncDecl, verb string) bool { return docMarked(fn.Doc, verb) }

// guardName extracts the "guarded by <mu>" mutex name from a field's doc or
// trailing comment ("" when unguarded).
func guardName(field *ast.Field) string {
	for _, cg := range [2]*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (nil for builtins, type conversions, and calls through function values).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// isBuiltin reports whether the call invokes the named builtin (append,
// panic, delete, ...).
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// rootIdent walks a selector/index chain (a.b.c[i]) down to its base
// identifier, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// funcName renders a FuncDecl's display name (Recv.Method or Func).
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	var recv string
	switch t := t.(type) {
	case *ast.Ident:
		recv = t.Name
	case *ast.IndexExpr: // generic receiver
		if id, ok := t.X.(*ast.Ident); ok {
			recv = id.Name
		}
	}
	if recv == "" {
		return fn.Name.Name
	}
	return recv + "." + fn.Name.Name
}

// exprString renders a short source-ish form of an expression for messages.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	default:
		return strings.TrimSpace(fmt.Sprintf("%T", e))
	}
}
