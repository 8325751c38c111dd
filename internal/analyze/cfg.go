package analyze

// CFG-lite helpers for lockcheck's flow-sensitive scan.
//
// The suite deliberately has no real control-flow graph (no x/tools/go/cfg):
// lockcheck's block-structured scan threads an object-keyed boolean state
// through statements, and exempts values the function just constructed — a
// freshly built struct is not yet visible to other goroutines, so its
// guarded fields may be touched bare.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// objSet is the CFG-lite program-point state: which objects (mutexes held,
// taints, ...) are "on" at a point of the scan.
type objSet map[types.Object]bool

func newObjSet() objSet { return make(objSet) }

func (s objSet) clone() objSet {
	c := make(objSet, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// replace overwrites dst with src in place (branch-merge helper).
func replace(dst, src objSet) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// intersect sets dst to the objects that are on in both branches.
func intersect(dst, a, b objSet) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range a {
		if v && b[k] {
			dst[k] = true
		}
	}
}

// freshLocals records the locals of body that are initialized from composite
// literals or new(): values the function itself just constructed, not yet
// shared with any other goroutine, so lockcheck's guards on their fields
// do not apply.
func freshLocals(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		a, ok := n.(*ast.AssignStmt)
		if !ok || a.Tok != token.DEFINE {
			return true
		}
		for i, lhs := range a.Lhs {
			if i >= len(a.Rhs) {
				break
			}
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if isFreshExpr(pass, a.Rhs[i]) {
				if obj := pass.Info.Defs[id]; obj != nil {
					fresh[obj] = true
				}
			}
		}
		return true
	})
	return fresh
}

// isFreshExpr reports whether e denotes a value constructed on the spot:
// a composite literal (optionally addressed), or new(T).
func isFreshExpr(pass *Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, lit := ast.Unparen(e.X).(*ast.CompositeLit)
		return lit
	case *ast.CallExpr:
		return isBuiltin(pass.Info, e, "new")
	}
	return false
}
