// Package lint implements graphlint, a stdlib-only static-analysis suite
// that enforces the pipeline's safety contracts. Each analyzer encodes one
// convention established by an earlier PR — atomic persistence, the
// errors.Is taxonomy, context threading, decoded-length plausibility caps,
// and goroutine lifetime tying — so that the invariants live in CI rather
// than in prose.
//
// The suite is built entirely on go/parser, go/ast, go/types and
// go/importer; the module has zero dependencies and must stay that way.
// Packages are loaded from source (see Loader), analyzers run over the
// type-checked AST, and findings can be suppressed with a mandatory-reason
// comment:
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//
// placed on the offending line or the line directly above it. A
// suppression without a reason is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A Diagnostic is one finding: an analyzer, a position, and a message.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// A Pass carries one type-checked package through one analyzer. Report
// records a finding; suppression filtering happens in Run, after every
// analyzer has seen the package.
type Pass struct {
	Fset   *token.FileSet
	Files  []*ast.File
	Pkg    *types.Package
	Info   *types.Info
	report func(analyzer string, pos token.Pos, format string, args ...any)
	name   string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(p.name, pos, format, args...)
}

// TypeOf returns the static type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf returns the object an identifier denotes, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Info.ObjectOf(id) }

// An Analyzer is one contract check. Run inspects a single package and
// reports findings through the pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All is the full graphlint suite, in the order findings are attributed.
// The first seven are the syntactic contract analyzers from PRs 5/6/9; the
// last three are flow-sensitive, built on the CFG + def-use layer (cfg.go).
var All = []*Analyzer{
	AtomicWrite,
	ErrTaxonomy,
	CtxPropagate,
	AllocBound,
	LeakyGoroutine,
	HTTPCtx,
	SSEContract,
	Determinism,
	Lockdiscipline,
	Atomicmix,
}

// Run executes every analyzer over every package and returns the surviving
// diagnostics sorted by position. Findings matched by a well-formed
// //lint:ignore suppression are dropped; malformed suppressions are
// reported as findings of the pseudo-analyzer "suppress".
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		sup, bad := collectSuppressions(pkg.Fset, pkg.Files)
		diags = append(diags, bad...)
		pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info}
		pass.report = func(analyzer string, pos token.Pos, format string, args ...any) {
			p := pkg.Fset.Position(pos)
			if sup.matches(analyzer, p) {
				return
			}
			diags = append(diags, Diagnostic{
				Analyzer: analyzer,
				Pos:      p,
				Message:  fmt.Sprintf(format, args...),
			})
		}
		for _, a := range analyzers {
			pass.name = a.Name
			runIsolated(pass, a, pkg, &diags)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// runIsolated executes one analyzer over one package with panic capture: a
// crash on an exotic construct (a generic instantiation the analyzer never
// anticipated, say) becomes a structured finding of the pseudo-analyzer
// "internal" instead of killing the whole run. The contract suite must
// degrade like the pipeline it lints.
func runIsolated(pass *Pass, a *Analyzer, pkg *Package, diags *[]Diagnostic) {
	defer func() {
		if r := recover(); r != nil {
			pos := token.Position{Filename: pkg.Dir}
			if len(pkg.Files) > 0 {
				pos = pkg.Fset.Position(pkg.Files[0].Pos())
			}
			*diags = append(*diags, Diagnostic{
				Analyzer: "internal",
				Pos:      pos,
				Message:  fmt.Sprintf("analyzer %s panicked on %s: %v", a.Name, pkg.Path, r),
			})
		}
	}()
	a.Run(pass)
}

// isPkgFunc reports whether the call resolves to the named function (or
// method) declared in the package with the given import path.
func isPkgFunc(pass *Pass, call *ast.CallExpr, pkgPath string, names ...string) bool {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fn.Sel
	case *ast.Ident:
		id = fn
	default:
		return false
	}
	obj, ok := pass.ObjectOf(id).(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return false
	}
	for _, n := range names {
		if obj.Name() == n {
			return true
		}
	}
	return false
}
