// Package lint is ysmart's project-specific static-analysis suite: a
// small go/parser + go/types analyzer framework (stdlib only, no
// golang.org/x/tools dependency) plus the analyzers behind the
// `ysmart-vet` CI gate. The analyzers machine-check invariants the Go
// compiler cannot see but replay and CMF correctness depend on:
//
//   - determinism: no wall-clock reads, no unseeded global math/rand,
//     no map-iteration-ordered emission in the simulator's data paths —
//     including through any chain of in-module helper calls, resolved
//     over the module call graph (callgraph.go, facts.go);
//   - sharecheck: closures run concurrently by forEachTask (or spawned
//     with go) may write captured state only into a task-index slot or
//     atomically, never merely under a mutex — helpers included;
//   - concreduce: a NewReduceTask or NewMapTask factory must return a
//     fresh instance, and the instance never writes state reached through
//     its factory — what a reduce task counts it returns from Done.
//
// A diagnostic on a deliberate exception is silenced with a trailing or
// preceding `// lint:ignore <check> reason` comment. The driver audits
// the directives themselves: one that silences zero diagnostics (while
// every check it names has run) is reported as `staleignore`, so dead
// suppressions cannot linger after the code they excused is gone.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzers is the full ysmart-vet suite in stable order.
var Analyzers = []*Analyzer{Determinism, ShareCheck, ConcReduce}

// StaleIgnoreCheck is the name the driver's suppression audit reports
// under. It is not an Analyzer: the driver itself emits it after all
// selected analyzers ran over a package.
const StaleIgnoreCheck = "staleignore"

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the check's identifier, used in diagnostics, -check
	// selection, and lint:ignore directives.
	Name string
	// Doc is a one-line description shown by `ysmart-vet -list`.
	Doc string
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
// or explicit directory paths) under the module rooted at or above dir.
// Diagnostics silenced by lint:ignore directives are dropped; the rest
// come back sorted by position.
func Vet(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	prog, targets, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, t := range targets {
		ig := ignoresOf(prog.Fset, t.Pkg)
		ran := make(map[string]bool)
		for _, a := range analyzers {
			if !t.Explicit && !a.appliesTo(t.Pkg.Rel) {
				continue
			}
			ran[a.Name] = true
			diags = append(diags, runOne(prog, t.Pkg, a, ig)...)
		}
		diags = append(diags, ig.stale(ran)...)
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

// runOne applies one analyzer to one package and filters ignored
// diagnostics, marking the directives it consumes. A nil ignore set is
// built on the spot (the corpus checker runs analyzers one at a time).
func runOne(prog *Program, pkg *Package, a *Analyzer, ig *ignoreSet) []Diagnostic {
	pass := &Pass{Prog: prog, Pkg: pkg, analyzer: a}
	a.Run(pass)
	if len(pass.diags) == 0 {
		return nil
	}
	if ig == nil {
		ig = ignoresOf(prog.Fset, pkg)
	}
	out := pass.diags[:0]
	for _, d := range pass.diags {
		if !ig.silences(d) {
			out = append(out, d)
		}
	}
	return out
}

// ignoreDirective is one lint:ignore comment, tracked through a whole
// vet run so the driver can tell which directives earned their keep.
type ignoreDirective struct {
	pos    token.Position
	checks []string
	used   bool
}

// ignoreSet indexes a package's directives by the file:line pairs they
// cover.
type ignoreSet struct {
	byLine map[string]map[int][]*ignoreDirective
	all    []*ignoreDirective
}

// ignoresOf collects the package's lint:ignore directives. A directive
// silences matching diagnostics on its own line; a directive whose
// comment group stands alone (no code before it on its last line) also
// silences the line immediately below the group, the staticcheck
// convention for annotating a whole statement.
func ignoresOf(fset *token.FileSet, pkg *Package) *ignoreSet {
	ig := &ignoreSet{byLine: make(map[string]map[int][]*ignoreDirective)}
	add := func(d *ignoreDirective, line int) {
		file := d.pos.Filename
		if ig.byLine[file] == nil {
			ig.byLine[file] = make(map[int][]*ignoreDirective)
		}
		ig.byLine[file][line] = append(ig.byLine[file][line], d)
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:ignore") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "lint:ignore"))
				if len(fields) == 0 {
					continue
				}
				d := &ignoreDirective{
					pos:    fset.Position(c.Pos()),
					checks: strings.Split(fields[0], ","),
				}
				ig.all = append(ig.all, d)
				add(d, d.pos.Line)
				add(d, d.pos.Line+1)
			}
		}
	}
	return ig
}

// silences reports whether the diagnostic is covered by a directive,
// marking every directive that covers it as used.
func (ig *ignoreSet) silences(d Diagnostic) bool {
	lines := ig.byLine[d.Pos.Filename]
	if lines == nil {
		return false
	}
	hit := false
	for _, dir := range lines[d.Pos.Line] {
		for _, c := range dir.checks {
			if c == d.Check || c == "*" {
				dir.used = true
				hit = true
			}
		}
	}
	return hit
}

// stale reports the directives that silenced nothing even though every
// check they name ran over the package — dead suppressions. A directive
// naming a check that did not run is left alone (it may yet earn its
// keep), and a wildcard is only judged when the entire registered suite
// ran, since any absent analyzer could have been its target.
func (ig *ignoreSet) stale(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range ig.all {
		if d.used {
			continue
		}
		judgeable := true
		for _, c := range d.checks {
			if c == "*" {
				for _, a := range Analyzers {
					if !ran[a.Name] {
						judgeable = false
					}
				}
			} else if !ran[c] {
				judgeable = false
			}
		}
		if !judgeable {
			continue
		}
		out = append(out, Diagnostic{
			Pos:     d.pos,
			Check:   StaleIgnoreCheck,
			Message: fmt.Sprintf("lint:ignore %s silences no diagnostic; remove the stale directive", strings.Join(d.checks, ",")),
		})
	}
	return out
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
