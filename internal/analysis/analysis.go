// Package analysis is a small, dependency-free analogue of the
// golang.org/x/tools/go/analysis framework: an Analyzer inspects the
// type-checked syntax of one package and reports Diagnostics at token
// positions.
//
// The repo is deliberately stdlib-only (see go.mod), so rather than pull in
// x/tools we reimplement the slice of the framework the project's linters
// need: whole-module loading and type checking (loader.go — go/types plus a
// source-walking importer, stdlib types via go/importer's "source"
// compiler), per-package analyzer runs with full types.Info, cross-package
// facts exported on objects and packages, a module-wide Finish hook for
// global analyses, position-keyed diagnostics, and //uvmlint:ignore
// suppression. Analyzers written against this package keep the x/tools
// shape — a Name, a Doc string, and a Run(*Pass) error — so porting them to
// a real multichecker later is mechanical.
//
// The seven project analyzers live in subpackages:
//
//   - locksafe:     mutex-guarded struct fields only touched under the lock
//   - simdet:       no wall-clock time or global math/rand in simulation code
//   - queuestate:   gpudev queue mutators called only by their owners
//   - discardproto: no reads of a buffer between Discard/Free and rewrite
//   - lockorder:    module-wide mutex acquisition graph must stay acyclic
//   - goroleak:     daemon goroutines tied to ctx/WaitGroup/channel drains
//   - errsink:      crash-safety errors (journal, fsync, runctl) must-check
//
// cmd/uvmlint is the multichecker that runs all of them over the module;
// analysistest is the `// want`-comment test harness.
package analysis

import (
	"fmt"
	"go/ast"
	"go/scanner"
	"go/token"
	"go/types"
	"reflect"
	"regexp"
	"sort"
	"strings"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //uvmlint:ignore comments. It must be a valid identifier.
	Name string
	// Doc is a one-paragraph description of what the analyzer reports.
	Doc string
	// Run applies the analyzer to one package. Packages are visited in
	// dependency order (imports first), so facts exported while
	// analyzing a package are visible to its importers. May be nil for
	// analyzers that only implement Finish.
	Run func(*Pass) error
	// Finish, if non-nil, runs once after every package's Run, with
	// access to all packages and this analyzer's accumulated facts. It
	// is where whole-module analyses (e.g. lock-graph cycle detection)
	// report.
	Finish func(*ModulePass) error
}

// Pass hands an Analyzer the typed syntax of a single package.
type Pass struct {
	// Analyzer is the pass being run.
	Analyzer *Analyzer
	// Fset maps token positions to file/line/column.
	Fset *token.FileSet
	// Files are the package's parsed files (comments included),
	// implementation and tests alike.
	Files []*ast.File
	// PkgName is the package clause name (e.g. "core").
	PkgName string
	// PkgPath is the package's module-relative import path (e.g.
	// "internal/core"); analyzers use it for scoping rules. In
	// analysistest runs it is the path under testdata/src.
	PkgPath string
	// Pkg is the full loaded package, including type errors.
	Pkg *Package
	// TypesInfo holds type information for every file in Files
	// (Defs/Uses/Types/Selections/...). Never nil for typed loads, but
	// entries may be missing in packages with type errors.
	TypesInfo *types.Info
	// TypesPkg is the type-checked package object (primary unit).
	TypesPkg *types.Package

	facts *factStore
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ExportObjectFact attaches fact to obj for this analyzer. Facts are
// in-memory only (one uvmlint run checks the whole module in-process), so
// they may carry positions, object references, anything.
func (p *Pass) ExportObjectFact(obj types.Object, fact any) {
	p.facts.exportObject(obj, fact)
}

// ImportObjectFact copies into *ptr the first fact previously exported on
// obj (by any package's run of this analyzer) whose type matches ptr's
// element type, reporting whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, ptr any) bool {
	return p.facts.importObject(obj, ptr)
}

// ExportPackageFact attaches fact to the package being analyzed.
func (p *Pass) ExportPackageFact(fact any) {
	p.facts.exportPackage(p.TypesPkg, fact)
}

// ImportPackageFact copies into *ptr the first fact exported on pkg whose
// type matches ptr's element type.
func (p *Pass) ImportPackageFact(pkg *types.Package, ptr any) bool {
	return p.facts.importPackage(pkg, ptr)
}

// ModulePass is handed to an Analyzer's Finish hook: the whole module plus
// every fact the analyzer exported while visiting it.
type ModulePass struct {
	// Analyzer is the pass being finished.
	Analyzer *Analyzer
	// Fset maps token positions to file/line/column.
	Fset *token.FileSet
	// Packages are all loaded packages, in dependency order.
	Packages []*Package

	facts *factStore
	diags *[]Diagnostic
}

// Reportf records a module-level diagnostic at pos.
func (m *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*m.diags = append(*m.diags, Diagnostic{
		Analyzer: m.Analyzer.Name,
		Pos:      pos,
		Position: m.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ImportPackageFact copies into *ptr the first fact exported on pkg whose
// type matches ptr's element type.
func (m *ModulePass) ImportPackageFact(pkg *types.Package, ptr any) bool {
	return m.facts.importPackage(pkg, ptr)
}

// factStore holds one analyzer's exported facts.
type factStore struct {
	obj map[types.Object][]any
	pkg map[*types.Package][]any
}

func newFactStore() *factStore {
	return &factStore{obj: map[types.Object][]any{}, pkg: map[*types.Package][]any{}}
}

func (s *factStore) exportObject(obj types.Object, fact any) {
	s.obj[obj] = append(s.obj[obj], fact)
}

func (s *factStore) importObject(obj types.Object, ptr any) bool {
	return assignFact(s.obj[obj], ptr)
}

func (s *factStore) exportPackage(pkg *types.Package, fact any) {
	s.pkg[pkg] = append(s.pkg[pkg], fact)
}

func (s *factStore) importPackage(pkg *types.Package, ptr any) bool {
	return assignFact(s.pkg[pkg], ptr)
}

// assignFact copies the first fact assignable to *ptr into it. Facts are
// conventionally exported as pointers (`ExportPackageFact(&FnLocks{...})`)
// and imported into values (`var f FnLocks; ImportObjectFact(obj, &f)`),
// so a pointer fact matches a value target through one dereference.
func assignFact(facts []any, ptr any) bool {
	v := reflect.ValueOf(ptr)
	if v.Kind() != reflect.Pointer {
		panic("analysis: fact pointer required")
	}
	for _, f := range facts {
		fv := reflect.ValueOf(f)
		if fv.Kind() == reflect.Pointer && fv.Elem().Type().AssignableTo(v.Elem().Type()) {
			fv = fv.Elem()
		}
		if fv.Type().AssignableTo(v.Elem().Type()) {
			v.Elem().Set(fv)
			return true
		}
	}
	return false
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Analyzer names the pass that produced the finding.
	Analyzer string
	// Pos is the finding's token position.
	Pos token.Pos
	// Position is Pos resolved against the file set.
	Position token.Position
	// Message describes the finding.
	Message string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Position, d.Analyzer, d.Message)
}

// SuppressName is the pseudo-analyzer name under which the framework
// itself reports problems with //uvmlint:ignore comments (malformed
// syntax, suppressions that no longer suppress anything). These findings
// cannot themselves be suppressed.
const SuppressName = "suppress"

// TypecheckName is the pseudo-analyzer name for parse and type-check
// failures surfaced by the loader.
const TypecheckName = "typecheck"

// Run applies each analyzer to each package (in the given order, which the
// loader guarantees is dependency order), runs Finish hooks, and returns
// all surviving diagnostics sorted by position, with //uvmlint:ignore
// suppressions applied and suppression hygiene enforced.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	kept, _, err := RunDetailed(pkgs, analyzers)
	return kept, err
}

// RunDetailed is Run, but additionally returns the diagnostics that were
// matched and dropped by suppression comments — the analysistest harness
// uses them to reject `// want` expectations satisfied only by a
// suppressed finding.
func RunDetailed(pkgs []*Package, analyzers []*Analyzer) (kept, suppressed []Diagnostic, err error) {
	var diags []Diagnostic
	facts := map[*Analyzer]*factStore{}
	for _, a := range analyzers {
		facts[a] = newFactStore()
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			diags = append(diags, typeErrorDiag(pkg, e))
		}
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				PkgName:   pkg.Name,
				PkgPath:   pkg.Path,
				Pkg:       pkg,
				TypesInfo: pkg.Info,
				TypesPkg:  pkg.TypesPkg,
				facts:     facts[a],
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		mp := &ModulePass{
			Analyzer: a,
			Fset:     fsetOf(pkgs),
			Packages: pkgs,
			facts:    facts[a],
			diags:    &diags,
		}
		if err := a.Finish(mp); err != nil {
			return nil, nil, fmt.Errorf("analysis: %s finish: %w", a.Name, err)
		}
	}
	kept, suppressed = applySuppressions(diags, pkgs, analyzers)
	sortDiags(kept)
	sortDiags(suppressed)
	return kept, suppressed, nil
}

func fsetOf(pkgs []*Package) *token.FileSet {
	if len(pkgs) > 0 {
		return pkgs[0].Fset
	}
	return token.NewFileSet()
}

// typeErrorDiag renders a loader-collected parse or type-check failure.
func typeErrorDiag(pkg *Package, err error) Diagnostic {
	d := Diagnostic{Analyzer: TypecheckName, Message: err.Error()}
	switch e := err.(type) {
	case types.Error:
		d.Position = e.Fset.Position(e.Pos)
		d.Pos = e.Pos
		d.Message = e.Msg
	case scanner.ErrorList:
		if len(e) > 0 {
			d.Position = e[0].Pos
			d.Message = e[0].Msg
		}
	default:
		d.Position = token.Position{Filename: pkg.Dir}
	}
	return d
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Position, diags[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
}

// ignorePrefixRe recognizes any comment that is trying to be a suppression;
// ignoreRe matches the full required form:
//
//	//uvmlint:ignore <name>[,<name>...] -- <justification>
//
// The " -- <justification>" clause is mandatory: a suppression must say why
// the finding is acceptable, and the framework reports comments that omit
// it instead of silently not suppressing.
var (
	ignorePrefixRe = regexp.MustCompile(`^//uvmlint:ignore(\s|$)`)
	ignoreRe       = regexp.MustCompile(`^//uvmlint:ignore\s+([a-zA-Z0-9_,]+)\s+--\s+\S`)
)

// suppression is one parsed //uvmlint:ignore comment.
type suppression struct {
	pos       token.Position
	names     map[string]bool
	malformed bool
	used      bool
}

// applySuppressions drops diagnostics covered by a well-formed
// //uvmlint:ignore comment on the same line or the line immediately above,
// and appends framework findings for malformed or unused suppressions.
func applySuppressions(diags []Diagnostic, pkgs []*Package, analyzers []*Analyzer) (kept, suppressed []Diagnostic) {
	inRun := map[string]bool{}
	for _, a := range analyzers {
		inRun[a.Name] = true
	}

	var sups []*suppression
	// byLine[file][line] = suppressions covering that line.
	byLine := map[string]map[int][]*suppression{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !ignorePrefixRe.MatchString(c.Text) {
						continue
					}
					s := &suppression{pos: pkg.Fset.Position(c.Pos())}
					if m := ignoreRe.FindStringSubmatch(c.Text); m != nil {
						s.names = map[string]bool{}
						for _, n := range strings.Split(m[1], ",") {
							s.names[strings.TrimSpace(n)] = true
						}
					} else {
						s.malformed = true
					}
					sups = append(sups, s)
					if s.malformed {
						continue
					}
					lines := byLine[s.pos.Filename]
					if lines == nil {
						lines = map[int][]*suppression{}
						byLine[s.pos.Filename] = lines
					}
					// A suppression covers its own line (trailing
					// comment) and the next line (comment above the
					// statement).
					lines[s.pos.Line] = append(lines[s.pos.Line], s)
					lines[s.pos.Line+1] = append(lines[s.pos.Line+1], s)
				}
			}
		}
	}

	kept = make([]Diagnostic, 0, len(diags))
	for _, d := range diags {
		if d.Analyzer == SuppressName {
			kept = append(kept, d)
			continue
		}
		matched := false
		for _, s := range byLine[d.Position.Filename][d.Position.Line] {
			if s.names[d.Analyzer] || s.names["all"] {
				s.used = true
				matched = true
			}
		}
		if matched {
			suppressed = append(suppressed, d)
		} else {
			kept = append(kept, d)
		}
	}

	for _, s := range sups {
		if s.malformed {
			kept = append(kept, Diagnostic{
				Analyzer: SuppressName,
				Position: s.pos,
				Message: "malformed //uvmlint:ignore: want " +
					`"//uvmlint:ignore <analyzer>[,<analyzer>] -- <justification>"`,
			})
			continue
		}
		if s.used {
			continue
		}
		// Only call a suppression unused when this run actually executed
		// every analyzer it names ("all" counts as the full run): a
		// partial run (analysistest on one pass) cannot know.
		known := true
		for n := range s.names {
			if n != "all" && !inRun[n] {
				known = false
			}
		}
		if known {
			kept = append(kept, Diagnostic{
				Analyzer: SuppressName,
				Position: s.pos,
				Message: fmt.Sprintf("unused //uvmlint:ignore for %s: nothing is suppressed here; delete it",
					namesList(s.names)),
			})
		}
	}
	return kept, suppressed
}

func namesList(names map[string]bool) string {
	var out []string
	for n := range names {
		out = append(out, n)
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}
