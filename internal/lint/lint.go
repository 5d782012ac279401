// Package lint is ysmart's project-specific static-analysis suite: a
// small go/parser + go/types analyzer framework (stdlib only, no
// golang.org/x/tools dependency) plus the analyzer behind the
// `ysmart-vet` CI gate. It machine-checks that every run replays byte
// for byte:
//
//   - determinism: no wall-clock reads, no unseeded global math/rand,
//     no map-iteration-ordered emission in the simulator's data paths —
//     including through any chain of in-module helper calls, resolved
//     over the module call graph (callgraph.go, facts.go).
//
// An analyzer earns its place here only by flagging a bug that both
// `go test ./...` and `go test -race ./...` miss: an unsorted map range
// changes output order from run to run while every single run stays
// correct. What parallel task bodies may write is held by the race
// detector over the engine's geometry and shared-plan tests instead.
//
// There is no suppression directive: a finding is fixed, not silenced.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzers is the full ysmart-vet suite.
var Analyzers = []*Analyzer{Determinism}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the check's identifier, used in diagnostics.
	Name string
	// Packages restricts the analyzer to module packages whose
	// module-relative import path starts with one of these prefixes. An
	// empty list applies the analyzer to every package. Explicitly named
	// package arguments (as opposed to ./... expansion) bypass the
	// restriction, which is how the testdata corpora are vetted.
	Packages []string
	// Run inspects pass.Pkg and reports findings through pass.Reportf.
	Run func(pass *Pass)
}

// appliesTo reports whether the analyzer's package scope covers the
// module-relative package path rel.
func (a *Analyzer) appliesTo(rel string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the diagnostic in the file:line:col form CI consumes.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Pass is one analyzer's view of one package under analysis.
type Pass struct {
	// Prog is the loaded program, giving cross-package context (the
	// call graph spans every module package regardless of which package
	// is being vetted).
	Prog *Program
	// Pkg is the package under analysis.
	Pkg      *Package
	analyzer *Analyzer
	diags    []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     p.Prog.Fset.Position(pos),
		Check:   p.analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Vet runs the analyzers over the packages matched by patterns (./...
// or explicit directory paths) under the module rooted at or above dir,
// and returns their diagnostics sorted by position.
func Vet(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	prog, targets, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, t := range targets {
		for _, a := range analyzers {
			if t.Explicit || a.appliesTo(t.Pkg.Rel) {
				diags = append(diags, runOne(prog, t.Pkg, a)...)
			}
		}
	}
	sort.Slice(diags, func(i, k int) bool {
		a, b := diags[i], diags[k]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return diags, nil
}

// runOne applies one analyzer to one package.
func runOne(prog *Program, pkg *Package, a *Analyzer) []Diagnostic {
	pass := &Pass{Prog: prog, Pkg: pkg, analyzer: a}
	a.Run(pass)
	return pass.diags
}

// enclosingFuncBody returns the body of the innermost function (decl or
// literal) containing pos in file, or nil. Analyzers use it to scope
// "later in the same function" reasoning.
func enclosingFuncBody(file *ast.File, pos token.Pos) *ast.BlockStmt {
	var body *ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil || pos < n.Pos() || pos >= n.End() {
			return false
		}
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				body = fn.Body
			}
		case *ast.FuncLit:
			body = fn.Body
		}
		return true
	})
	return body
}
