// Package errsink defines an analyzer enforcing must-check errors on the
// crash-safety surface: the calls whose error (or interrupt) result is the
// only signal that durability or cancellation failed. Discarding them
// turns a crash-safety mechanism into a silent no-op — a journal whose
// Close error vanishes can lose the very records the kill -9 resume test
// depends on.
//
// The must-check set (see DESIGN.md §13):
//
//   - experiments.Journal.Record and Close — the fsync'd batch journal
//   - (*os.File).Sync — every fsync path
//   - runctl.Control.Check — the returned *Interrupt is the deadline/
//     cancellation verdict; dropping it keeps a dead job running
//   - checkpoint.WriteFile — the durable step marker a crash resume reads;
//     a dropped error counts a save that never reached the disk
//
// A call is "discarded" when it stands alone as a statement, is deferred
// or spawned (`defer j.Close()`, `go j.Close()`), or is assigned entirely
// to blank identifiers (`_ = f.Sync()`). Explicitly intended discards must
// carry an `//uvmlint:ignore errsink -- <justification>` instead.
//
// Test files are exempt: tests exercise error paths deliberately and their
// durability is not the daemon's.
package errsink

import (
	"go/ast"
	"strings"

	"uvmdiscard/internal/analysis"
)

// Analyzer is the errsink pass.
var Analyzer = &analysis.Analyzer{
	Name: "errsink",
	Doc: "require the results of crash-safety calls (journal Record/Close, " +
		"file Sync, runctl Check) to be consumed, not discarded",
	Run: run,
}

// mustCheck lists the crash-safety calls by package path, receiver type,
// and name. An empty recv marks a package-level function rather than a
// method.
var mustCheck = []struct{ pkg, recv, name, why string }{
	{"uvmdiscard/internal/experiments", "Journal", "Record", "a dropped journal write breaks crash-safe resume"},
	{"uvmdiscard/internal/experiments", "Journal", "Close", "a dropped close can lose buffered journal state"},
	{"uvmdiscard/internal/jsonl", "Appender", "Append", "an unchecked append breaks the durable log's crash-safety contract"},
	{"uvmdiscard/internal/jsonl", "Appender", "Close", "a dropped close can lose buffered log state"},
	{"os", "File", "Sync", "an unchecked fsync is not durable"},
	{"uvmdiscard/internal/runctl", "Control", "Check", "the *Interrupt is the cancellation verdict; dropping it keeps a dead job running"},
	{"uvmdiscard/internal/checkpoint", "", "WriteFile", "a dropped checkpoint write counts a save the disk does not hold"},
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		pos := pass.Fset.Position(f.Pos())
		if strings.HasSuffix(pos.Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			var how string
			switch st := n.(type) {
			case *ast.ExprStmt:
				call, _ = st.X.(*ast.CallExpr)
				how = "discarded"
			case *ast.DeferStmt:
				call = st.Call
				how = "discarded by defer"
			case *ast.GoStmt:
				call = st.Call
				how = "discarded by go"
			case *ast.AssignStmt:
				if len(st.Rhs) != 1 || !allBlank(st.Lhs) {
					return true
				}
				call, _ = st.Rhs[0].(*ast.CallExpr)
				how = "assigned to _"
			default:
				return true
			}
			if call == nil {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			recv := analysis.ReceiverNamed(fn)
			for _, m := range mustCheck {
				if fn.Name() != m.name {
					continue
				}
				if m.recv == "" {
					if !analysis.IsPkgFunc(fn, m.pkg, m.name) {
						continue
					}
					pass.Reportf(call.Pos(),
						"result of %s.%s %s: %s — handle it or suppress with a justification",
						shortPkg(m.pkg), m.name, how, m.why)
					break
				}
				if recv != nil && recv.Obj().Name() == m.recv &&
					analysis.ObjPkgPath(recv.Obj()) == m.pkg {
					pass.Reportf(call.Pos(),
						"result of (%s.%s).%s %s: %s — handle it or suppress with a justification",
						shortPkg(m.pkg), m.recv, m.name, how, m.why)
					break
				}
			}
			return true
		})
	}
	return nil
}

func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
