package analysis

import (
	"go/ast"
	"go/types"
)

// Callee resolves the function or method called by call, or nil when the
// callee is not a static function (a function value, a type conversion, a
// builtin). Works through renamed imports, dot imports, and method values
// because it consults type information, not names.
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

// ReceiverNamed returns the named type of fn's receiver, looking through a
// pointer, or nil for plain functions.
func ReceiverNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return NamedOf(sig.Recv().Type())
}

// NamedOf returns t as a *types.Named, looking through one pointer and
// through aliases, or nil.
func NamedOf(t types.Type) *types.Named {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// IsNamed reports whether t (after pointer deref) is the named type
// pkgPath.name.
func IsNamed(t types.Type, pkgPath, name string) bool {
	n := NamedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && ObjPkgPath(obj) == pkgPath
}

// ObjPkgPath returns the import path of the package declaring obj, or ""
// for universe-scope objects.
func ObjPkgPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// IsPkgFunc reports whether fn is the package-level function pkgPath.name
// (no receiver).
func IsPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Name() != name || ObjPkgPath(fn) != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}
