package analyze

import (
	"go/ast"
	"go/types"
)

// Spawncheck enforces goroutine discipline in library packages: every `go`
// statement must be joined — a sync.WaitGroup Done in the goroutine body
// paired with an Add in the spawning function, or a result delivered over a
// channel (send or close) — and its body must recover panics so they can be
// re-raised on the joining goroutine instead of crashing the process from a
// worker (the pattern of the serve dispatcher and experiment.Runner.Stream's
// cell workers). Documented fire-and-forget
// goroutines carry //optchain:detached with a justification and are exempt,
// as is package main, where process lifetime is the join.
//
// The body is resolved structurally: a function literal directly, a named
// same-package function through its declaration. A `go` through a function
// value or another package's function cannot be verified and is a finding
// unless annotated — the contract is that unverifiable spawns are documented
// spawns.
var Spawncheck = &Analyzer{
	Name: "spawncheck",
	Doc:  "verify library goroutines are joined (WaitGroup or channel) and recover panics for re-raise; //optchain:detached documents fire-and-forget",
	Run:  runSpawncheck,
}

func runSpawncheck(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	decls := funcDeclsByObj(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := funcName(fn)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				checkSpawn(pass, decls, fn, name, g)
				return true
			})
		}
	}
	return nil
}

// funcDeclsByObj indexes the package's function declarations by their type
// object, so `go runChunk(t)` resolves to runChunk's body.
func funcDeclsByObj(pass *Pass) map[types.Object]*ast.FuncDecl {
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj := pass.Info.Defs[fn.Name]; obj != nil {
					decls[obj] = fn
				}
			}
		}
	}
	return decls
}

func checkSpawn(pass *Pass, decls map[types.Object]*ast.FuncDecl, encl *ast.FuncDecl, name string, g *ast.GoStmt) {
	if pass.Ann.Marked(g.Pos(), "detached") {
		return
	}
	body := spawnBody(pass, decls, g.Call)
	if body == nil {
		pass.Reportf(g.Pos(), "%s spawns a goroutine whose body cannot be resolved (function value or foreign function); join it here or annotate //optchain:detached with a justification", name)
		return
	}
	if !hasWaitGroupCall(pass, body, "Done") && !hasChannelDelivery(pass, body) {
		pass.Reportf(g.Pos(), "%s spawns an unjoined goroutine; pair sync.WaitGroup Add/Done (with Wait) or deliver a result on a channel, or annotate //optchain:detached with a justification", name)
	} else if !hasWaitGroupCall(pass, encl.Body, "Add") && !hasChannelDelivery(pass, body) {
		pass.Reportf(g.Pos(), "%s calls Done in a spawned goroutine but never Add before spawning; Add must precede the spawn on the joining side", name)
	}
	if !hasRecover(pass, body) {
		pass.Reportf(g.Pos(), "%s spawns a goroutine that does not recover panics; capture them and re-raise on the joining goroutine (see experiment.Runner.Stream), or annotate //optchain:detached with a justification", name)
	}
}

// spawnBody resolves the spawned call to the function body that will run:
// the literal's body, or a same-package named function's declaration body.
func spawnBody(pass *Pass, decls map[types.Object]*ast.FuncDecl, call *ast.CallExpr) *ast.BlockStmt {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return fun.Body
	default:
		if fn := calleeFunc(pass.Info, call); fn != nil {
			if decl := decls[fn]; decl != nil {
				return decl.Body
			}
		}
	}
	return nil
}

// hasWaitGroupCall reports whether the subtree calls the named method of
// sync.WaitGroup (through any receiver expression, including fields).
func hasWaitGroupCall(pass *Pass, n ast.Node, method string) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || fn.Name() != method {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return true
		}
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if ok && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup" {
			found = true
		}
		return !found
	})
	return found
}

// hasChannelDelivery reports whether the goroutine body hands a result back
// over a channel: a send statement or a close() of a channel.
func hasChannelDelivery(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.CallExpr:
			if isBuiltin(pass.Info, x, "close") {
				found = true
			}
		}
		return !found
	})
	return found
}

// hasRecover reports whether the body calls recover(), typically inside a
// deferred function literal.
func hasRecover(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok && isBuiltin(pass.Info, call, "recover") {
			found = true
		}
		return !found
	})
	return found
}
