// Package lint is ysmart's project-specific static analysis: a small
// go/parser + go/types package loader and module call graph (stdlib only,
// no golang.org/x/tools dependency) under the one check behind the
// `ysmart-vet` CI gate. It machine-checks that every run replays byte
// for byte:
//
//   - determinism: no wall-clock reads, no unseeded global math/rand,
//     no map-iteration-ordered emission in the simulator's data paths —
//     including through any chain of in-module helper calls, resolved
//     over the module call graph (callgraph.go, facts.go).
//
// A check earns its place here only by flagging a bug that both
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
)

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

// Vet runs the determinism check over the packages matched by patterns
// (./... or explicit directory paths) under the module rooted at or above
// dir, and returns its diagnostics sorted by position. ./... expansion
// applies the check's package scope (inScope); explicitly named
// directories bypass it, which is how the testdata corpora are vetted.
func Vet(dir string, patterns []string) ([]Diagnostic, error) {
	prog, targets, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, t := range targets {
		if t.Explicit || inScope(t.Pkg.Rel) {
			diags = append(diags, checkDeterminism(prog, t.Pkg)...)
		}
	}
	sort.Slice(diags, func(i, k int) bool {
		a, b := diags[i].Pos, diags[k].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags, nil
}

// enclosingFuncBody returns the body of the innermost function (decl or
// literal) containing pos in file, or nil. The determinism check uses it
// to scope "later in the same function" reasoning.
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
