package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestCorpora runs the determinism check over its golden corpus
// and checks the diagnostics against the // want comments — both that
// every finding is expected and that every expectation fires.
func TestCorpora(t *testing.T) {
	for _, corpus := range []string{"determinism"} {
		t.Run(corpus, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", corpus)
			problems, err := CheckCorpus(dir)
			if err != nil {
				t.Fatalf("CheckCorpus(%s): %v", dir, err)
			}
			for _, p := range problems {
				t.Error(p)
			}
		})
	}
}

// TestCorporaFail: each corpus must actually produce diagnostics when
// run through the public driver (the CLI's exit-1 path); a corpus that
// goes silent means the check regressed.
func TestCorporaFail(t *testing.T) {
	for _, corpus := range []string{"determinism"} {
		t.Run(corpus, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", corpus)
			diags, err := Vet(dir, []string{"."})
			if err != nil {
				t.Fatalf("Vet(%s): %v", dir, err)
			}
			if len(diags) == 0 {
				t.Fatalf("corpus %s produced no diagnostics", corpus)
			}
			for _, d := range diags {
				if d.Pos.Filename == "" || d.Pos.Line == 0 {
					t.Errorf("diagnostic without position: %s", d)
				}
				if !strings.Contains(d.Pos.Filename, corpus) {
					t.Errorf("diagnostic outside corpus: %s", d)
				}
			}
		})
	}
}

// TestAnalyzerScopes: ./... expansion applies the package scope (the
// determinism check must not run outside the replayed packages), and
// explicit directory targets bypass it.
func TestAnalyzerScopes(t *testing.T) {
	if !inScope("internal/mapreduce") {
		t.Error("determinism must cover internal/mapreduce")
	}
	if inScope("internal/obs") {
		t.Error("determinism must not cover internal/obs (exporters sort maps themselves)")
	}
}

// TestVetCleanTree: the check's reason to exist — ysmart-vet ./... on
// the real tree reports nothing. Every true positive it found was
// fixed; there is no way to annotate an exception.
func TestVetCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped with -short")
	}
	diags, err := Vet(filepath.Join("..", ".."), []string{"./..."})
	if err != nil {
		t.Fatalf("Vet(./...): %v", err)
	}
	for _, d := range diags {
		t.Errorf("tree not vet-clean: %s", d)
	}
}
