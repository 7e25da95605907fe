package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Package is one directory's worth of parsed, type-checked Go source: the
// unit analyzers run over. All files in the directory — implementation,
// in-package tests, and external (package foo_test) tests — appear in
// Files so comment-driven machinery (suppressions, `// want`) sees
// everything, while type checking happens in the two real compilation
// units and is merged into one Info.
type Package struct {
	// Name is the non-test package clause name.
	Name string
	// Path is the module-relative import path ("" for the module root);
	// analyzers use it for scoping rules. In analysistest runs it is the
	// path under testdata/src.
	Path string
	// Dir is the absolute directory.
	Dir string
	// Fset is the file set all Files were parsed into.
	Fset *token.FileSet
	// Files are the parsed files, comments included, sorted by filename.
	Files []*ast.File
	// TypesPkg is the type-checked primary unit (non-test files plus
	// in-package tests). May be non-nil even when TypeErrors is not
	// empty: go/types recovers what it can.
	TypesPkg *types.Package
	// Info holds the merged type information for every file in Files.
	Info *types.Info
	// TypeErrors collects parse and type-check failures for this
	// directory; the driver reports them as diagnostics.
	TypeErrors []error

	primary  []*ast.File // the primary compilation unit
	xtest    []*ast.File // the external test unit (package foo_test)
	xtestPkg *types.Package
}
