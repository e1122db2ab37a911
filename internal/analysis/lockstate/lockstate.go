// Package lockstate is the shared held-lock tracker behind lockcheck and
// lockorder. It walks one function body in source order, maintaining the
// set of mutexes held on the current path keyed by the receiver
// expression's spelling ("m.mu", "m.snapMu"), with the early-return
// restoration lockcheck pioneered: a branch that terminates (return,
// break, panic) cannot leak its lock changes onto the fall-through path.
//
// The walk is flow-approximate by design — branch bodies share and
// persist state — which matches the straight-line lock-use idiom this
// repo follows and keeps both analyzers cheap.
package lockstate

import (
	"go/ast"
	"go/types"

	"cfsf/internal/analysis"
)

// IsMutex reports whether t is sync.Mutex or sync.RWMutex (directly or
// behind a pointer).
func IsMutex(t types.Type) bool {
	return analysis.IsNamedType(t, "sync", "Mutex") || analysis.IsNamedType(t, "sync", "RWMutex")
}

// Walker drives one function body. All callbacks are optional; they
// observe the walk with Held reflecting the state at that point. Read
// the held set through Held() — the underlying map is replaced on
// early-return restoration.
type Walker struct {
	Info *types.Info

	// OnAcquire fires after a Lock/RLock/TryLock on sel added key to the
	// held set.
	OnAcquire func(sel *ast.SelectorExpr, key string)
	// OnExpr fires for every checked expression (lock-management calls
	// excluded): RHS values, conditions, call statements, return results.
	OnExpr func(e ast.Expr)
	// OnWrite fires for every assignment target (also IncDec operands).
	OnWrite func(lhs ast.Expr)
	// OnAssign fires for each assignment after its RHS OnExpr calls and
	// before its LHS OnWrite calls — the construction-tracking hook.
	OnAssign func(st *ast.AssignStmt)
	// OnValueSpec is OnAssign for var declarations.
	OnValueSpec func(vs *ast.ValueSpec)

	held map[string]bool
}

// Held reports whether the lock spelled key ("m.mu") is held at the
// current point of the walk.
func (w *Walker) Held(key string) bool { return w.held[key] }

// HeldSet returns a copy of the currently held lock keys.
func (w *Walker) HeldSet() map[string]bool { return copyHeld(w.held) }

// Seed marks key held on entry (the //cfsf:locked contract).
func (w *Walker) Seed(key string) {
	if w.held == nil {
		w.held = map[string]bool{}
	}
	w.held[key] = true
}

// Walk traverses the body in source order.
func (w *Walker) Walk(body *ast.BlockStmt) {
	if w.held == nil {
		w.held = map[string]bool{}
	}
	w.stmts(body.List)
}

func (w *Walker) expr(e ast.Expr) {
	if w.OnExpr != nil && e != nil {
		w.OnExpr(e)
	}
}

func (w *Walker) write(e ast.Expr) {
	if w.OnWrite != nil {
		w.OnWrite(e)
	}
}

func (w *Walker) stmts(list []ast.Stmt) {
	for _, stmt := range list {
		w.stmt(stmt)
	}
}

func (w *Walker) stmt(stmt ast.Stmt) {
	switch v := stmt.(type) {
	case *ast.ExprStmt:
		if !w.lockCall(v.X, false) {
			w.expr(v.X)
		}
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to function end; any
		// other deferred call is checked with the current state.
		if !w.lockCall(v.Call, true) {
			w.expr(v.Call)
		}
	case *ast.AssignStmt:
		for _, rhs := range v.Rhs {
			w.expr(rhs)
		}
		if w.OnAssign != nil {
			w.OnAssign(v)
		}
		for _, lhs := range v.Lhs {
			w.write(lhs)
			w.expr(lhs)
		}
	case *ast.IncDecStmt:
		w.write(v.X)
		w.expr(v.X)
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						w.expr(val)
					}
					if w.OnValueSpec != nil {
						w.OnValueSpec(vs)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range v.Results {
			w.expr(r)
		}
	case *ast.IfStmt:
		if v.Init != nil {
			w.stmt(v.Init)
		}
		w.expr(v.Cond)
		// A branch that ends in return/break/continue/panic never reaches
		// the statements after the if: its lock changes (the early-return
		// `mu.Unlock(); return` idiom) must not leak onto the fall-through
		// path.
		saved := copyHeld(w.held)
		w.stmts(v.Body.List)
		if Terminates(v.Body.List) {
			w.held = saved
		}
		if v.Else != nil {
			saved = copyHeld(w.held)
			w.stmt(v.Else)
			if blk, ok := v.Else.(*ast.BlockStmt); ok && Terminates(blk.List) {
				w.held = saved
			}
		}
	case *ast.ForStmt:
		if v.Init != nil {
			w.stmt(v.Init)
		}
		if v.Cond != nil {
			w.expr(v.Cond)
		}
		w.stmts(v.Body.List)
		if v.Post != nil {
			w.stmt(v.Post)
		}
	case *ast.RangeStmt:
		w.expr(v.X)
		w.stmts(v.Body.List)
	case *ast.BlockStmt:
		w.stmts(v.List)
	case *ast.SwitchStmt:
		if v.Init != nil {
			w.stmt(v.Init)
		}
		if v.Tag != nil {
			w.expr(v.Tag)
		}
		for _, cl := range v.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.expr(e)
				}
				w.stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		if v.Init != nil {
			w.stmt(v.Init)
		}
		w.stmt(v.Assign)
		for _, cl := range v.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				w.stmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, cl := range v.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				if cc.Comm != nil {
					w.stmt(cc.Comm)
				}
				w.stmts(cc.Body)
			}
		}
	case *ast.GoStmt:
		w.expr(v.Call)
	case *ast.SendStmt:
		w.expr(v.Chan)
		w.expr(v.Value)
	case *ast.LabeledStmt:
		w.stmt(v.Stmt)
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// Terminates reports whether a statement list always leaves the
// enclosing flow: its last statement is a return, a branch
// (break/continue/goto), or a panic call.
func Terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return Terminates(last.List)
	}
	return false
}

// lockCall updates lock state if e is a mutex Lock/Unlock call on a
// selector; it reports true when the call was lock management.
func (w *Walker) lockCall(e ast.Expr, deferred bool) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	recv := w.Info.TypeOf(sel.X)
	if !IsMutex(recv) {
		return false
	}
	key := analysis.ExprString(sel.X)
	if key == "" {
		return false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		w.held[key] = true
		if w.OnAcquire != nil {
			w.OnAcquire(sel, key)
		}
		return true
	case "Unlock", "RUnlock":
		if !deferred {
			delete(w.held, key)
		}
		return true
	case "TryLock", "TryRLock":
		// The result decides; treat as acquired (over-approximate).
		w.held[key] = true
		if w.OnAcquire != nil {
			w.OnAcquire(sel, key)
		}
		return true
	}
	return false
}
