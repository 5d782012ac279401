package translator

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"ysmart/internal/mapreduce"
	"ysmart/internal/queries"
	"ysmart/internal/reuse"
)

// chainOrderError reports the first job of jobs that reads a path some job
// of jobs writes, but no earlier one: the engine runs a chain in the order
// given, so a job's intermediate inputs must already be written.
func chainOrderError(jobs []*mapreduce.Job) error {
	writer := make(map[string]int, len(jobs))
	for i := len(jobs) - 1; i >= 0; i-- {
		writer[jobs[i].Output] = i
	}
	for i, j := range jobs {
		for _, in := range j.Inputs {
			if w, ok := writer[in.Path]; ok && w >= i {
				return fmt.Errorf("job %d (%s) reads %s, first written by job %d (%s)", i, j.Name, in.Path, w, jobs[w].Name)
			}
		}
	}
	return nil
}

// readsIntermediate reports whether j reads the output of a job of jobs.
func readsIntermediate(jobs []*mapreduce.Job, j *mapreduce.Job) bool {
	for _, in := range j.Inputs {
		for _, w := range jobs {
			if w.Output == in.Path {
				return true
			}
		}
	}
	return false
}

// TestChainOrderInvariant: every producer of a job chain lists a job after
// the jobs whose outputs it reads — lowering, for every workload query under
// every mode with and without each ablation, and the reuse rewrite, for a
// cold store (every job runs) and a partial one (the result's and every
// other job's artifacts gone). The partial chain then runs on a DFS holding
// only the base tables and the installed artifacts, and reproduces the cold
// rows.
func TestChainOrderInvariant(t *testing.T) {
	names := make([]string, 0, len(queries.Named()))
	for name := range queries.Named() {
		names = append(names, name)
	}
	sort.Strings(names)
	ablations := []Options{{}, {DisableSharedScan: true}, {DisableCombiner: true}}
	for _, name := range names {
		sql := queries.Named()[name]
		for _, mode := range allModes {
			for _, opts := range ablations {
				opts.QueryName = name
				tr := translate(t, sql, mode, opts)
				if err := chainOrderError(tr.Jobs); err != nil {
					t.Errorf("%s/%s %+v: %v", name, mode, opts, err)
				}
			}
		}
	}

	chained := 0 // partial chains in which a job reads another's output
	for _, name := range names {
		for _, mode := range []Mode{OneToOne, YSmart} {
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				dfs, _ := workload(t)
				store := reuse.NewStore(0, nil)
				tr := translate(t, queries.Named()[name], mode, Options{QueryName: name})
				cold := ApplyReuseAt(tr, store, dfs, nil)
				if err := chainOrderError(cold.Jobs); err != nil {
					t.Fatalf("cold rewrite: %v", err)
				}
				coldLines, stats := runReuse(t, cold, dfs)
				cold.Record(store, dfs, stats)

				keep := make(map[string]bool)
				for i, a := range tr.Artifacts() {
					if i%2 == 0 || tr.Jobs[i].Output == tr.Output {
						store.Forget(a.Fingerprint)
					}
					for _, p := range a.Tables {
						keep[p] = true
					}
				}
				dfs.Retain(keep)
				partial := ApplyReuseAt(tr, store, dfs, nil)
				if err := chainOrderError(partial.Jobs); err != nil {
					t.Fatalf("partial rewrite: %v", err)
				}
				for _, j := range partial.Jobs {
					if readsIntermediate(partial.Jobs, j) {
						chained++
						break
					}
				}
				if lines, _ := runReuse(t, partial, dfs); !reflect.DeepEqual(lines, coldLines) {
					t.Errorf("partial rewrite (%d of %d jobs) returned other rows than the cold chain", len(partial.Jobs), partial.Total)
				}
			})
		}
	}
	if chained == 0 {
		t.Error("no partial rewrite kept two dependent jobs: the rewrite's order went untested")
	}
}
