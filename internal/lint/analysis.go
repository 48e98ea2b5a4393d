// Package lint is avtmor's project-specific static-analysis suite: five
// analyzers that mechanically enforce invariants the design docs only
// promise — cancellation threading (ctxflow), workspace pool hygiene
// (wspool), bit-exact determinism (detrom), adversarial-length
// allocation caps (cappedread), and mutex-guarded field access
// (lockedfield). cmd/avtmorlint runs them as a multichecker beside the
// stock vet passes; CI blocks on the result.
//
// The analyzer surface deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic, testdata/src fixtures with `// want`
// expectations) so the suite can migrate onto the upstream framework by
// swapping imports. It is reimplemented here on the standard library
// alone because the build must stay dependency-free: packages load
// through go/build + go/parser, typecheck through go/types with the
// source importer, and fixtures run under the analysistest-style driver
// in linttest.go.
//
// Findings are suppressed line by line with
//
//	//avtmorlint:ignore <name>[,<name>...] <reason>
//
// on the flagged line or the line above it. The reason is mandatory: a
// directive without one is inert and the finding stands, so every
// suppression in the tree documents why the invariant does not apply.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one analysis pass and how to run it.
type Analyzer struct {
	// Name identifies the analyzer in findings, -disable flags, and
	// ignore directives.
	Name string
	// Doc states the invariant the analyzer enforces and the
	// under-approximations it accepts.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass) error
}

// A Pass hands one package's syntax and types to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// A Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Finding is one post-filter diagnostic, resolved to a file position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// RunAnalyzers applies analyzers to pkg, drops diagnostics suppressed by
// //avtmorlint:ignore directives, and returns the survivors in file
// order.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	supp := suppressions(pkg.Fset, pkg.Files)
	var out []Finding
	for _, a := range analyzers {
		var diags []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.ImportPath, a.Name, err)
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			if supp.ignores(a.Name, pos) {
				continue
			}
			out = append(out, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := out[i].Pos, out[j].Pos
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{CtxFlow, WsPool, DetROM, CappedRead, LockedField}
}

// exprString renders simple ident/selector chains ("rd", "s.pool.mu")
// for position-insensitive comparison; other expression shapes yield "".
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprString(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	}
	return ""
}

// calleeFunc resolves the *types.Func a call invokes (package function
// or method), or nil for builtins, conversions, and indirect calls
// through function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
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

// isPkgFunc reports whether fn is the package-level function name in a
// package whose import path is path or ends in "/"+path (so fixture
// fakes under testdata/src stand in for the real package).
func isPkgFunc(fn *types.Func, path, name string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	return pathMatches(fn.Pkg().Path(), path)
}

func pathMatches(got, want string) bool {
	return got == want || len(got) > len(want)+1 && got[len(got)-len(want)-1] == '/' && got[len(got)-len(want):] == want
}
