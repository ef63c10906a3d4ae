// Package analysis implements mbvet, the project's static-analysis
// suite. The simulator's correctness rests on invariants the compiler
// cannot see — byte-identical checkpoints, shard merges and report
// tables, and error chains that errors.Is can still classify — and this
// package rejects code that would erode them at analysis time.
//
// Everything here is built on the standard library's go/parser, go/ast,
// and go/types packages only (no x/tools), matching the repo's
// stdlib-only rule. The suite keeps only rules with a record of catching
// real bugs: determinism (det-*) and error conventions (err-*). See the
// Rules table for the catalog. There is no suppression directive; the
// packages that read the wall clock by design are exempt from the
// determinism rules by path (IsSimPackage).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic: a rule violation at a position,
// with a suggested fix when one is cheap to state.
type Finding struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
	Fix     string `json:"fix,omitempty"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Rule, f.Message)
	if f.Fix != "" {
		s += " (fix: " + f.Fix + ")"
	}
	return s
}

// Rule describes one rule ID for the -rules listing.
type Rule struct {
	ID      string
	Summary string
}

// Rules is the catalog of every rule mbvet enforces, sorted by ID.
var Rules = []Rule{
	{"det-maprange", "map iteration feeding a slice, builder, writer, or channel is nondeterministic unless sorted"},
	{"det-rand", "global math/rand source in a simulation package breaks run-to-run determinism"},
	{"det-time", "wall-clock read in a simulation package breaks run-to-run determinism"},
	{"err-cmp", "sentinel error compared with == or !=; errors.Is also matches wrapped errors"},
	{"err-wrap", "error formatted with %v/%s/%q loses the chain; wrap with %w"},
}

// wallClockPackages lists the module-relative package paths (and their
// subpackages) that may legitimately read the wall clock: progress
// lines and trace timestamps (obs, obsio), entry mtimes for eviction
// (store), the analyzer itself, and the command-line drivers. Every
// other package feeds the byte-identical checkpoints and tables and is
// held to the determinism rules, so a new simulation package is covered
// without being listed.
var wallClockPackages = []string{
	"internal/obs",
	"internal/obsio",
	"internal/store",
	"internal/analysis",
	"cmd",
}

// IsSimPackage reports whether the package at importPath inside module
// is held to the determinism rules. Fixture packages under the analysis
// testdata tree are always included so the rules can be exercised by
// tests and CI.
func IsSimPackage(module, importPath string) bool {
	if strings.Contains(importPath, "internal/analysis/testdata/") {
		return true
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, module), "/")
	for _, p := range wallClockPackages {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return false
		}
	}
	return true
}

// Pass is one package's unit of analysis: its syntax, type information,
// and the accumulated findings.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// Module and ImportPath locate the package; the determinism rules
	// consult them via IsSimPackage.
	Module     string
	ImportPath string

	findings []Finding
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, rule, fix, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.findings = append(p.findings, Finding{
		Rule:    rule,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
		Fix:     fix,
	})
}

// Analyzer is one named rule-family implementation.
type Analyzer struct {
	Name string
	Run  func(*Pass)
}

// Analyzers returns the full suite in execution order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		ErrConvAnalyzer,
	}
}

// Analyze runs the whole suite over one loaded package and returns its
// findings.
func Analyze(pkg *Package) []Finding {
	pass := &Pass{
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		Pkg:        pkg.Types,
		Info:       pkg.Info,
		Module:     pkg.Module,
		ImportPath: pkg.ImportPath,
	}
	for _, a := range Analyzers() {
		a.Run(pass)
	}
	return pass.findings
}

// AnalyzeAll runs the suite over every loaded package and returns all
// findings sorted by file, line, column, and rule.
func AnalyzeAll(pkgs []*Package) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		findings = append(findings, Analyze(pkg)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return findings
}

// --- shared type helpers --------------------------------------------------

// calleeFunc resolves a call to the package-level function or method it
// invokes, or nil for builtins, conversions, and dynamic calls.
func (p *Pass) calleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// isBuiltin reports whether the call invokes the named builtin.
func (p *Pass) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = p.Info.Uses[id].(*types.Builtin)
	return ok
}

var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// exprErrorType reports whether the expression's static type satisfies
// the error interface.
func (p *Pass) exprErrorType(e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return types.Implements(tv.Type, errorType)
}

// exprIsNil reports whether the expression is the untyped nil.
func (p *Pass) exprIsNil(e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.IsNil()
}

// rootIdent returns the leftmost identifier of an expression such as
// x, x.f, x[i], or (*x).f, or nil when there is none.
func rootIdent(e ast.Expr) *ast.Ident {
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
		case *ast.UnaryExpr:
			e = v.X
		default:
			return nil
		}
	}
}
