package difftest

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ysmart"
	"ysmart/internal/queries"
)

var update = flag.Bool("update", false, "rewrite golden files from current engine output")

// workload is generated once; every run reads from its own runtime's DFS
// copy, so sharing the row slices is safe.
var workload map[string][]ysmart.Row

// plans holds the one translation per (query, mode, optimize) the whole
// matrix runs: every test, worker count and fault plan executes it, which
// is itself part of the proof that running a translation leaves no trace
// in it.
var plans = map[string]*ysmart.Translation{}

func compiled(t *testing.T, name, sql string, mode ysmart.Mode, optimize bool) *ysmart.Translation {
	t.Helper()
	key := fmt.Sprintf("%s/%v/%v", name, mode, optimize)
	if tr, ok := plans[key]; ok {
		return tr
	}
	tr, err := Compile(name, sql, mode, optimize)
	if err != nil {
		t.Fatal(err)
	}
	plans[key] = tr
	return tr
}

func TestMain(m *testing.M) {
	flag.Parse()
	var err error
	workload, err = ysmart.WorkloadTables()
	if err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestWorkersByteIdentical is the differential proof for the worker pool:
// for every workload query, every fault scenario and workers ∈ {1, 2, 8},
// the engine must produce the same rows in the same order, identical
// per-job stats (including attempt logs) and an identical trace byte
// stream as the sequential workers=1 run.
func TestWorkersByteIdentical(t *testing.T) {
	named := queries.Named()
	for _, name := range QueryNames() {
		sql := named[name]
		for _, plan := range FaultPlans(1, 2) {
			t.Run(name+"/"+PlanLabel(plan), func(t *testing.T) {
				tr := compiled(t, name, sql, ysmart.YSmart, false)
				base, err := Execute(tr, 1, plan, workload)
				if err != nil {
					t.Fatal(err)
				}
				if len(base.Rows) == 0 {
					t.Fatalf("baseline produced no rows")
				}
				for _, w := range []int{2, 8} {
					got, err := Execute(tr, w, plan, workload)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.EqualFunc(got.Rows, base.Rows, ysmart.Row.Identical) {
						t.Errorf("workers=%d: rows differ from workers=1 (got %d rows, want %d)",
							w, len(got.Rows), len(base.Rows))
					}
					if !reflect.DeepEqual(got.Jobs, base.Jobs) {
						for i := range base.Jobs {
							if i < len(got.Jobs) && !reflect.DeepEqual(got.Jobs[i], base.Jobs[i]) {
								t.Errorf("workers=%d: job %d stats differ:\n got  %+v\n want %+v",
									w, i, *got.Jobs[i], *base.Jobs[i])
							}
						}
						if len(got.Jobs) != len(base.Jobs) {
							t.Errorf("workers=%d: %d jobs, want %d", w, len(got.Jobs), len(base.Jobs))
						}
					}
					if !bytes.Equal(got.Trace, base.Trace) {
						t.Errorf("workers=%d: trace bytes differ from workers=1 (%d vs %d bytes)",
							w, len(got.Trace), len(base.Trace))
					}
				}
			})
		}
	}
}

// TestEngineMatchesOracle cross-checks the parallel engine against the
// pipelined DBMS executor, an independent implementation of the same
// queries, and pins the sorted rows in committed golden files.
func TestEngineMatchesOracle(t *testing.T) {
	named := queries.Named()
	for _, name := range QueryNames() {
		sql := named[name]
		t.Run(name, func(t *testing.T) {
			run, err := Execute(compiled(t, name, sql, ysmart.YSmart, false), 8, nil, workload)
			if err != nil {
				t.Fatal(err)
			}
			got := run.SortedLines()

			want, err := Oracle(sql, workload)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			diffLines(t, "engine vs dbms oracle", got, want)

			golden := filepath.Join("testdata", "golden", strings.ToLower(name)+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to regenerate): %v", err)
			}
			diffLines(t, "engine vs golden", got, strings.Split(strings.TrimRight(string(data), "\n"), "\n"))
		})
	}
}

// TestModesAgree checks that the merged YSmart plan and the one-to-one
// plan compute the same relation at full parallelism — the optimizer must
// not change answers, only job counts.
func TestModesAgree(t *testing.T) {
	named := queries.Named()
	for _, name := range QueryNames() {
		sql := named[name]
		t.Run(name, func(t *testing.T) {
			merged, err := Execute(compiled(t, name, sql, ysmart.YSmart, false), 8, nil, workload)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := Execute(compiled(t, name, sql, ysmart.OneToOne, false), 8, nil, workload)
			if err != nil {
				t.Fatal(err)
			}
			diffLines(t, "ysmart vs one-to-one", merged.SortedLines(), naive.SortedLines())
		})
	}
}

// diffLines reports the first few differing lines between two sorted row
// encodings.
func diffLines(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d rows, want %d", label, len(got), len(want))
	}
	shown := 0
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("%s: row %d:\n got  %s\n want %s", label, i, got[i], want[i])
			if shown++; shown >= 3 {
				t.Errorf("%s: ... further diffs elided", label)
				return
			}
		}
	}
}
