package analysis

import (
	"go/ast"
	"go/types"
)

// Callee resolves the static callee of a call expression: a package
// function or a method reached through a direct selector. It returns nil
// for calls through function values, interfaces it cannot resolve
// statically, conversions, and builtins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsNamedType reports whether t (after stripping pointers) is the named
// type pkgPath.name.
func IsNamedType(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// ReturnsError reports whether fn's signature includes an error result.
func ReturnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if named, ok := sig.Results().At(i).Type().(*types.Named); ok &&
			named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
			return true
		}
	}
	return false
}

// RootIdent returns the leftmost identifier of a selector/index chain
// (the x of x.a.b[i].c), or nil when the base is not an identifier.
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// ExprString renders a (small) expression the way it appears in source,
// for use as a lock-identity key. Unsupported shapes return "".
func ExprString(e ast.Expr) string {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		base := ExprString(v.X)
		if base == "" {
			return ""
		}
		return base + "." + v.Sel.Name
	case *ast.StarExpr:
		return ExprString(v.X)
	}
	return ""
}
