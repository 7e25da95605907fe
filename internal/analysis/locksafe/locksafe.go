// Package locksafe defines an analyzer enforcing the repo's mutex
// convention: in a struct with a field `mu sync.Mutex` (or RWMutex), every
// field declared after mu is guarded by it, and methods of that struct may
// only touch guarded fields while holding the lock.
//
// A method counts as holding the lock when its body calls <recv>.mu.Lock
// or <recv>.mu.RLock, or when its name ends in "Locked" (the convention
// for helpers whose callers hold mu). This is exactly the race class PR 1
// fixed in metrics.Collector: getters reading counters while a run was
// still writing them.
//
// The positional convention doubles as the ownership annotation for
// hot-path structs: fields declared *before* mu are unguarded by design
// and must be individually safe (sync/atomic values, or immutable after
// construction). metrics.Collector is the exemplar — its counters are
// lock-free atomics ahead of mu, so the driver's batched folds of its
// per-run tally never lock and live readers load them race-free, while
// the composite state after mu (residency gauges, the API-time map)
// keeps the mutex. Moving a field across the mu line is therefore a
// semantic change this analyzer enforces, not a style choice.
//
// The pass is typed: the mutex field is recognized by its go/types
// identity (so a renamed or dot-imported sync still counts), and guarded
// field accesses are resolved through types.Info.Selections and a local
// alias set seeded from the receiver — `c := r; c.n++` is the aliased-
// receiver false negative the old syntax-only pass missed.
package locksafe

import (
	"go/ast"
	"go/types"
	"strings"

	"uvmdiscard/internal/analysis"
)

// Analyzer is the locksafe pass.
var Analyzer = &analysis.Analyzer{
	Name: "locksafe",
	Doc: "report accesses to mutex-guarded struct fields in methods that " +
		"neither lock the mutex nor declare (by a *Locked name) that the " +
		"caller holds it",
	Run: run,
}

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo
	// Pass 1: find structs with a mu sync.Mutex / sync.RWMutex field;
	// fields declared after mu are guarded.
	guarded := map[*types.TypeName]map[string]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			tn, ok := info.Defs[ts.Name].(*types.TypeName)
			if !ok {
				return true
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				return true
			}
			muIdx := -1
			for i := 0; i < st.NumFields(); i++ {
				fld := st.Field(i)
				if fld.Name() == "mu" &&
					(analysis.IsNamed(fld.Type(), "sync", "Mutex") || analysis.IsNamed(fld.Type(), "sync", "RWMutex")) {
					muIdx = i
					break
				}
			}
			if muIdx < 0 || muIdx == st.NumFields()-1 {
				return true
			}
			fields := map[string]bool{}
			for i := muIdx + 1; i < st.NumFields(); i++ {
				fields[st.Field(i).Name()] = true
			}
			guarded[tn] = fields
			return true
		})
	}
	if len(guarded) == 0 {
		return nil
	}

	// Pass 2: check each method of a guarded struct.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			recvNamed := analysis.ReceiverNamed(fn)
			if recvNamed == nil {
				continue
			}
			tn := recvNamed.Obj()
			fields := guarded[tn]
			if fields == nil {
				continue
			}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				continue // caller holds the lock by convention
			}
			var recvObj types.Object
			if len(fd.Recv.List[0].Names) > 0 {
				recvObj = info.Defs[fd.Recv.List[0].Names[0]]
			}
			if recvObj == nil {
				continue // receiver unused: no field access possible
			}
			aliases := receiverAliases(info, fd.Body, recvObj)
			if locksMu(info, fd.Body, aliases, tn) {
				continue
			}
			// No lock acquired: any guarded-field access through the
			// receiver (or an alias of it) is a finding.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				selInfo := info.Selections[sel]
				if selInfo == nil || selInfo.Kind() != types.FieldVal {
					return true
				}
				if !fields[sel.Sel.Name] || ownerTypeName(selInfo) != tn {
					return true
				}
				id, ok := ast.Unparen(sel.X).(*ast.Ident)
				if !ok || !aliases[objOf(info, id)] {
					return true
				}
				pass.Reportf(sel.Pos(),
					"%s.%s is guarded by %s.mu, but method %s accesses it without holding the lock (no %s.mu.Lock and name does not end in Locked)",
					tn.Name(), sel.Sel.Name, tn.Name(),
					fd.Name.Name, id.Name)
				return true
			})
		}
	}
	return nil
}

// ownerTypeName resolves the named type a field selection goes through.
func ownerTypeName(sel *types.Selection) *types.TypeName {
	n := analysis.NamedOf(sel.Recv())
	if n == nil {
		return nil
	}
	return n.Obj()
}

// objOf returns the object an identifier refers to, whether it defines or
// uses it.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// receiverAliases returns the set of objects that may refer to the
// receiver: the receiver itself plus any local variable assigned from a
// member of the set (`c := r`, `var c = r`, `c = r`), iterated to a fixed
// point so chains and later re-assignments are covered.
func receiverAliases(info *types.Info, body *ast.BlockStmt, recv types.Object) map[types.Object]bool {
	aliases := map[types.Object]bool{recv: true}
	for changed := true; changed; {
		changed = false
		add := func(lhs, rhs ast.Expr) {
			rid, ok := ast.Unparen(rhs).(*ast.Ident)
			if !ok || !aliases[objOf(info, rid)] {
				return
			}
			lid, ok := lhs.(*ast.Ident)
			if !ok {
				return
			}
			if obj := objOf(info, lid); obj != nil && !aliases[obj] {
				aliases[obj] = true
				changed = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) == len(st.Rhs) {
					for i := range st.Lhs {
						add(st.Lhs[i], st.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(st.Names) == len(st.Values) {
					for i := range st.Names {
						add(st.Names[i], st.Values[i])
					}
				}
			}
			return true
		})
	}
	return aliases
}

// locksMu reports whether body contains a call to <alias>.mu.Lock or
// <alias>.mu.RLock where mu is tn's guard field.
func locksMu(info *types.Info, body *ast.BlockStmt, aliases map[types.Object]bool, tn *types.TypeName) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok || inner.Sel.Name != "mu" {
			return true
		}
		innerSel := info.Selections[inner]
		if innerSel == nil || ownerTypeName(innerSel) != tn {
			return true
		}
		id, ok := ast.Unparen(inner.X).(*ast.Ident)
		if ok && aliases[objOf(info, id)] {
			found = true
			return false
		}
		return true
	})
	return found
}
