package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Lockcheck enforces mutex discipline on struct fields annotated
// "// guarded by <mu>": every read or write of such a field must happen in
// a scope that holds that mutex. Holding is tracked intra-procedurally with
// a block-structured scan: <x>.mu.Lock() acquires, <x>.mu.Unlock() releases,
// defer <x>.mu.Unlock() holds to function end, a branch that unlocks and
// returns does not release the fall-through path, and an if on
// <x>.mu.TryLock() holds the mutex where the call returned true (the body,
// or with "!" the else branch and the path past a body that returns). Functions (or function
// literals) whose contract is "caller holds the mutex" carry
// //optchain:locked and are exempt; so are accesses through values the
// function itself just constructed (not yet shared).
//
// The check is per-package and name-based on the mutex field object, so it
// assumes the usual one-struct-one-mutex discipline rather than alias
// analysis — exactly the Engine.mu / Runner.mu shape this repository uses,
// and the discipline ROADMAP item 1 (sharded T2S/tally state) will stress.
var Lockcheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "verify that fields annotated '// guarded by <mu>' are only accessed while that mutex is held",
	Run:  runLockcheck,
}

// guardInfo records one guarded field: its object and the mutex field
// object that guards it.
type guardInfo struct {
	field types.Object
	mutex types.Object
}

func runLockcheck(pass *Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if FuncMarked(fn, "locked") {
				continue // contract: caller holds the mutex (covers nested literals)
			}
			c := &lockChecker{pass: pass, guards: guards, name: funcName(fn)}
			c.fresh = freshLocals(pass, fn.Body)
			c.scanBlock(fn.Body, newObjSet())
		}
	}
	return nil
}

// collectGuards finds every "// guarded by <mu>" field in the package and
// resolves both the field and its mutex to type objects. The mutex may be a
// dotted path ("guarded by parent.mu"): the first segment must name a field
// of the annotated struct, each further segment a field of the previous
// segment's (possibly pointed-to) struct type — so chunk-local state guarded
// by an owning struct's mutex resolves to that struct's mutex object, the
// same object <x>.parent.mu.Lock() resolves to.
func collectGuards(pass *Pass) map[types.Object]guardInfo {
	guards := make(map[types.Object]guardInfo)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			// First resolve candidate mutex fields by name.
			byName := make(map[string]types.Object)
			for _, fd := range st.Fields.List {
				for _, name := range fd.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						byName[name.Name] = obj
					}
				}
			}
			for _, fd := range st.Fields.List {
				mu := guardName(fd)
				if mu == "" {
					continue
				}
				segs := strings.Split(mu, ".")
				mutex, ok := byName[segs[0]]
				if !ok {
					pass.Reportf(fd.Pos(), "guarded by %q names no field in this struct", mu)
					continue
				}
				for _, seg := range segs[1:] {
					next := structFieldOf(mutex.Type(), seg)
					if next == nil {
						pass.Reportf(fd.Pos(), "guarded by %q: %s has no struct field %q", mu, mutex.Name(), seg)
						mutex = nil
						break
					}
					mutex = next
				}
				if mutex == nil {
					continue
				}
				for _, name := range fd.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						guards[obj] = guardInfo{field: obj, mutex: mutex}
					}
				}
			}
			return true
		})
	}
	return guards
}

// structFieldOf resolves name to a field object of t's struct type,
// dereferencing one level of pointer (the usual back-reference shape).
func structFieldOf(t types.Type, name string) types.Object {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Name() == name {
			return f
		}
	}
	return nil
}

type lockChecker struct {
	pass   *Pass
	guards map[types.Object]guardInfo
	name   string
	// fresh holds locals initialized from composite literals or new() in
	// this function (see freshLocals in cfg.go): values not yet visible to
	// other goroutines, so their guarded fields may be touched lock-free
	// (constructors).
	fresh map[types.Object]bool
}

// mutexOpObj resolves <expr>.<mu>.Lock/Unlock-style calls to the mutex field
// object and the method name.
func (c *lockChecker) mutexOp(call *ast.CallExpr) (types.Object, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	method := sel.Sel.Name
	switch method {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock":
	default:
		return nil, ""
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	s := c.pass.Info.Selections[inner]
	if s == nil || s.Kind() != types.FieldVal {
		return nil, ""
	}
	return s.Obj(), method
}

// tryLocked marks the mutexes an if condition acquired with TryLock: in
// onTrue those locked whenever cond is true (the call itself, or a conjunct
// of &&), in onFalse those locked whenever it is false (the negated call,
// or a disjunct of ||).
func (c *lockChecker) tryLocked(cond ast.Expr, onTrue, onFalse objSet) {
	switch e := ast.Unparen(cond).(type) {
	case *ast.CallExpr:
		if mu, method := c.mutexOp(e); method == "TryLock" {
			onTrue[mu] = true
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			c.tryLocked(e.X, onFalse, onTrue)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			c.tryLocked(e.X, onTrue, newObjSet())
			c.tryLocked(e.Y, onTrue, newObjSet())
		case token.LOR:
			c.tryLocked(e.X, newObjSet(), onFalse)
			c.tryLocked(e.Y, newObjSet(), onFalse)
		}
	}
}

// scanBlock walks statements in order, threading the held-set. Returns true
// when the block terminates (return/panic/goto): its lock-state changes then
// never reach the code after the enclosing branch.
func (c *lockChecker) scanBlock(b *ast.BlockStmt, held objSet) bool {
	if b == nil {
		return false
	}
	return c.scanStmts(b.List, held)
}

func (c *lockChecker) scanStmts(stmts []ast.Stmt, held objSet) bool {
	for _, s := range stmts {
		if c.scanStmt(s, held) {
			return true
		}
	}
	return false
}

// scanStmt checks one statement's accesses against held, applies its lock
// effects, and reports whether it terminates the enclosing block.
func (c *lockChecker) scanStmt(s ast.Stmt, held objSet) bool {
	switch s := s.(type) {
	case nil:
		return false
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if mu, method := c.mutexOp(call); mu != nil {
				switch method {
				case "Lock", "RLock":
					held[mu] = true
				case "Unlock", "RUnlock":
					held[mu] = false
				}
				return false
			}
			if isBuiltin(c.pass.Info, call, "panic") {
				c.checkAccesses(s, held)
				return true
			}
		}
		c.checkAccesses(s, held)
		return false
	case *ast.DeferStmt:
		// defer mu.Unlock() holds to function end: no state change. Any
		// other deferred call is checked as running with the current set
		// (an approximation; deferred closures that lock themselves pass
		// their own scan).
		if mu, _ := c.mutexOp(s.Call); mu != nil {
			return false
		}
		c.checkAccesses(s, held)
		return false
	case *ast.ReturnStmt:
		c.checkAccesses(s, held)
		return true
	case *ast.BranchStmt:
		return false // break/continue end the path conservatively — no unlock tracked
	case *ast.BlockStmt:
		return c.scanBlock(s, held)
	case *ast.IfStmt:
		if s.Init != nil {
			c.scanStmt(s.Init, held)
		}
		c.checkAccessesExpr(s.Cond, held)
		bodyHeld := held.clone()
		elseHeld := held.clone()
		c.tryLocked(s.Cond, bodyHeld, elseHeld)
		bodyTerm := c.scanBlock(s.Body, bodyHeld)
		elseTerm := false
		if s.Else != nil {
			elseTerm = c.scanStmt(s.Else, elseHeld)
		}
		// Merge: a terminating branch contributes nothing to fall-through.
		switch {
		case bodyTerm && elseTerm:
			return true
		case bodyTerm:
			replace(held, elseHeld)
		case elseTerm:
			// fall-through continues with the if-body's final state only if
			// the else terminated and there IS an else; with no else the
			// body state must merge below.
			replace(held, bodyHeld)
		default:
			intersect(held, bodyHeld, elseHeld)
		}
		return false
	case *ast.ForStmt:
		if s.Init != nil {
			c.scanStmt(s.Init, held)
		}
		c.checkAccessesExpr(s.Cond, held)
		bodyHeld := held.clone()
		c.scanBlock(s.Body, bodyHeld)
		if s.Post != nil {
			c.scanStmt(s.Post, bodyHeld)
		}
		// Loop bodies may or may not run: fall-through keeps the entry set
		// intersected with the body's exit set (a body that leaves a lock
		// held for its own next iteration doesn't extend past the loop).
		intersect(held, held.clone(), bodyHeld)
		return false
	case *ast.RangeStmt:
		c.checkAccessesExpr(s.X, held)
		bodyHeld := held.clone()
		c.scanBlock(s.Body, bodyHeld)
		intersect(held, held.clone(), bodyHeld)
		return false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		c.checkAccesses(s, held) // tag/init expressions
		var clauses []ast.Stmt
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			clauses = sw.Body.List
		case *ast.TypeSwitchStmt:
			clauses = sw.Body.List
		case *ast.SelectStmt:
			clauses = sw.Body.List
		}
		for _, cl := range clauses {
			clHeld := held.clone()
			switch cl := cl.(type) {
			case *ast.CaseClause:
				c.scanStmts(cl.Body, clHeld)
			case *ast.CommClause:
				c.scanStmts(cl.Body, clHeld)
			}
		}
		return false
	case *ast.LabeledStmt:
		return c.scanStmt(s.Stmt, held)
	case *ast.GoStmt:
		// The spawned goroutine does not inherit the spawner's lock.
		c.checkAccessesWith(s.Call, newObjSet())
		return false
	default:
		c.checkAccesses(s, held)
		return false
	}
}

func (c *lockChecker) checkAccesses(n ast.Node, held objSet) {
	c.checkAccessesWith(n, held)
}

func (c *lockChecker) checkAccessesExpr(e ast.Expr, held objSet) {
	if e != nil {
		c.checkAccessesWith(e, held)
	}
}

// checkAccessesWith reports guarded-field accesses in the subtree that are
// not covered by the held set. Function literals are scanned as their own
// scopes (they may run later, on another goroutine) unless annotated
// //optchain:locked — then they inherit the documented caller contract.
func (c *lockChecker) checkAccessesWith(n ast.Node, held objSet) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if !c.pass.Ann.Marked(x.Pos(), "locked") {
				c.scanBlock(x.Body, newObjSet())
			}
			return false
		case *ast.SelectorExpr:
			s := c.pass.Info.Selections[x]
			if s == nil || s.Kind() != types.FieldVal {
				return true
			}
			g, guarded := c.guards[s.Obj()]
			if !guarded {
				return true
			}
			if held[g.mutex] {
				return true
			}
			if base := rootIdent(x.X); base != nil {
				if obj := c.pass.Info.ObjectOf(base); obj != nil && c.fresh[obj] {
					return true // constructing a not-yet-shared value
				}
			}
			c.pass.Reportf(x.Sel.Pos(), "%s accesses %s.%s without holding %s (lock it, or annotate the function //optchain:locked if the caller holds it)",
				c.name, exprString(x.X), s.Obj().Name(), g.mutex.Name())
			return true
		}
		return true
	})
}
