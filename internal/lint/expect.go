package lint

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// wantRx matches a golden-corpus expectation comment: the diagnostic's
// message on that line must match the quoted regexp.
var wantRx = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// CheckCorpus runs the analyzers over the corpus package in dir and
// compares the diagnostics against the corpus's `// want "regexp"`
// comments: every diagnostic must be expected by a want on its line,
// and every want must be matched by a diagnostic. It returns one
// mismatch per line, empty when the corpus is green.
//
// The corpus files are loaded through the same module-aware driver the
// CLI uses, so they may import ysmart packages; analyzer package scopes
// are bypassed, exactly as `ysmart-vet <dir>` bypasses them.
func CheckCorpus(dir string, analyzers []*Analyzer) ([]string, error) {
	prog, targets, err := Load(dir, []string{"."})
	if err != nil {
		return nil, err
	}
	pkg := targets[0].Pkg
	var diags []Diagnostic
	for _, a := range analyzers {
		diags = append(diags, runOne(prog, pkg, a)...)
	}
	wants := corpusWants(prog.Fset, pkg)

	var problems []string
	matched := make(map[string]bool)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		want, ok := wants[key]
		if !ok {
			problems = append(problems, fmt.Sprintf("unexpected diagnostic: %s", d))
			continue
		}
		rx, err := regexp.Compile(want)
		if err != nil {
			return nil, fmt.Errorf("bad want regexp at %s: %v", key, err)
		}
		if !rx.MatchString(d.Message) {
			problems = append(problems, fmt.Sprintf("diagnostic %q does not match want %q at %s", d.Message, want, key))
			continue
		}
		matched[key] = true
	}
	for key, want := range wants {
		if !matched[key] {
			problems = append(problems, fmt.Sprintf("missing diagnostic: want %q at %s", want, key))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// corpusWants maps "file:line" to the expected-message regexp.
func corpusWants(fset *token.FileSet, pkg *Package) map[string]string {
	wants := make(map[string]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRx.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				// The quoted regexp may contain escaped quotes.
				want := strings.ReplaceAll(m[1], `\"`, `"`)
				wants[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = want
			}
		}
	}
	return wants
}
