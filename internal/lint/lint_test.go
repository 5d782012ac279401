package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestCorpora runs the full suite over each analyzer's golden corpus
// and checks the diagnostics against the // want comments — both that
// every finding is expected and that every expectation fires.
func TestCorpora(t *testing.T) {
	for _, corpus := range []string{"determinism", "sharecheck", "concreduce"} {
		t.Run(corpus, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", corpus)
			problems, err := CheckCorpus(dir, Analyzers)
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
// goes silent means its analyzer regressed.
func TestCorporaFail(t *testing.T) {
	for _, corpus := range []string{"determinism", "sharecheck", "concreduce"} {
		t.Run(corpus, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", corpus)
			diags, err := Vet(dir, []string{"."}, Analyzers)
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

// TestKitchenIgnored: the kitchen corpus holds one instance of every
// diagnostic kind, each silenced with lint:ignore; the driver must
// report nothing.
func TestKitchenIgnored(t *testing.T) {
	dir := filepath.Join("testdata", "src", "kitchen")
	diags, err := Vet(dir, []string{"."}, Analyzers)
	if err != nil {
		t.Fatalf("Vet(kitchen): %v", err)
	}
	for _, d := range diags {
		t.Errorf("lint:ignore did not silence: %s", d)
	}
}

// TestAnalyzerScopes: ./... expansion applies package scopes (the
// determinism analyzer must not run outside the replayed packages), and
// explicit directory targets bypass them.
func TestAnalyzerScopes(t *testing.T) {
	if !Determinism.appliesTo("internal/mapreduce") {
		t.Error("determinism must cover internal/mapreduce")
	}
	if Determinism.appliesTo("internal/obs") {
		t.Error("determinism must not cover internal/obs (exporters sort maps themselves)")
	}
	if !ShareCheck.appliesTo("internal/mapreduce") || !ShareCheck.appliesTo("internal/difftest") {
		t.Error("sharecheck must cover the packages that spawn parallel tasks")
	}
	if ShareCheck.appliesTo("internal/translator") {
		t.Error("sharecheck must not cover the sequential translator")
	}
	if !ConcReduce.appliesTo("cmd/ysmart") {
		t.Error("concreduce is unscoped; reduce-task factories may live anywhere")
	}
}

// TestStaleIgnoreAudit: the driver reports directives that silence
// nothing, skips directives naming checks that did not run, and judges
// wildcards only against the full suite.
func TestStaleIgnoreAudit(t *testing.T) {
	dir := filepath.Join("testdata", "src", "staleignore")

	diags, err := Vet(dir, []string{"."}, Analyzers)
	if err != nil {
		t.Fatalf("Vet(staleignore): %v", err)
	}
	var stale []string
	for _, d := range diags {
		if d.Check != StaleIgnoreCheck {
			t.Errorf("unexpected non-audit diagnostic: %s", d)
			continue
		}
		stale = append(stale, d.Message)
	}
	if len(stale) != 2 {
		t.Fatalf("full suite: want 2 stale directives (the dead determinism one and the wildcard), got %d: %v", len(stale), stale)
	}
	if !strings.Contains(stale[0], "lint:ignore determinism") || !strings.Contains(stale[1], "lint:ignore *") {
		t.Errorf("wrong directives reported: %v", stale)
	}

	// With only one analyzer selected the wildcard is unjudgeable, but
	// the dead determinism directive still shows.
	diags, err = Vet(dir, []string{"."}, []*Analyzer{Determinism})
	if err != nil {
		t.Fatalf("Vet(staleignore, determinism): %v", err)
	}
	if len(diags) != 1 || diags[0].Check != StaleIgnoreCheck || !strings.Contains(diags[0].Message, "lint:ignore determinism") {
		t.Fatalf("subset run: want exactly the dead determinism directive, got %v", diags)
	}
}

// BenchmarkVetModule guards the CI gate's latency: one full-module vet
// — load, type-check, call graph, every analyzer — must stay within a
// few seconds on one core. CI runs it with -benchtime=1x under
// the job's -timeout budget, so a pathological slowdown fails the gate.
func BenchmarkVetModule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		diags, err := Vet(filepath.Join("..", ".."), []string{"./..."}, Analyzers)
		if err != nil {
			b.Fatalf("Vet(./...): %v", err)
		}
		if len(diags) != 0 {
			b.Fatalf("tree not vet-clean: %s", diags[0])
		}
	}
}

// TestVetCleanTree: the suite's reason to exist — ysmart-vet ./... on
// the real tree reports nothing. Every true positive it found was
// fixed, and every deliberate exception is annotated.
func TestVetCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped with -short")
	}
	diags, err := Vet(filepath.Join("..", ".."), []string{"./..."}, Analyzers)
	if err != nil {
		t.Fatalf("Vet(./...): %v", err)
	}
	for _, d := range diags {
		t.Errorf("tree not vet-clean: %s", d)
	}
}
