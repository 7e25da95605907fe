// Package queuestate defines an analyzer that keeps the gpudev physical
// page-queue discipline single-owned: the queue mutators on gpudev.Device
// (PushFree, PushUnused, PushUsed, PushDiscarded, PushPoisoned, Detach,
// Touch, MoveStretch, PopFree, PopUnused, PopDiscarded) may only be called from
// internal/core (the UVM driver, which owns the §5.5 eviction/discard
// protocol and the poison-quarantine policy) and internal/gpudev itself
// (the implementation and its tests).
//
// Everything else must go through the driver's public API so the
// chunk-in-exactly-one-queue invariant (enforced at runtime by the core
// sanitizer) has exactly one owner to audit.
//
// The pass is typed: a call counts only when the callee resolves to a
// method of gpudev.Device, so unrelated types that happen to share a
// mutator name are never flagged, and renaming or dot-importing gpudev no
// longer hides a call the way it did from the old import-name match.
package queuestate

import (
	"go/ast"
	"strings"

	"uvmdiscard/internal/analysis"
)

// Analyzer is the queuestate pass.
var Analyzer = &analysis.Analyzer{
	Name: "queuestate",
	Doc: "restrict gpudev queue mutator calls (PushFree, Detach, PopFree, ...) " +
		"to internal/core and internal/gpudev",
	Run: run,
}

// gpudevPath is the import path of the queue implementation.
const gpudevPath = "uvmdiscard/internal/gpudev"

// mutators are the Device methods that move chunks between queues.
var mutators = map[string]bool{
	"PushFree":      true,
	"PushUnused":    true,
	"PushUsed":      true,
	"PushDiscarded": true,
	"PushPoisoned":  true,
	"Detach":        true,
	"Touch":         true,
	"MoveStretch":   true,
	"PopFree":       true,
	"PopUnused":     true,
	"PopDiscarded":  true,
}

// allowed are the package paths that own the queue discipline.
var allowed = map[string]bool{
	"internal/core":   true,
	"internal/gpudev": true,
}

func run(pass *analysis.Pass) error {
	if allowed[pass.PkgPath] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			if fn == nil || !mutators[fn.Name()] {
				return true
			}
			recv := analysis.ReceiverNamed(fn)
			if recv == nil || recv.Obj().Name() != "Device" || analysis.ObjPkgPath(recv.Obj()) != gpudevPath {
				return true
			}
			pass.Reportf(call.Pos(),
				"call to gpudev queue mutator %s outside internal/core and internal/gpudev: queue discipline is owned by the driver; use the core.Driver API (package %s)",
				fn.Name(), pkgLabel(pass.PkgPath))
			return true
		})
	}
	return nil
}

func pkgLabel(path string) string {
	if path == "" {
		return "module root"
	}
	return strings.TrimSuffix(path, "/")
}
