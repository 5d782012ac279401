package translator

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/queries"
	"ysmart/internal/reuse"
)

// TestRunMatchesHandWrittenSequence: without a store, Run is RunChain over
// the translation's own jobs followed by ReadResult — the sequence every
// surface used to spell out (runMR keeps one copy as the reference). Rows,
// chain stats and everything the run left in the DFS must be equal.
func TestRunMatchesHandWrittenSequence(t *testing.T) {
	for _, name := range []string{"Q18", "Q-CSA"} {
		for _, mode := range []Mode{YSmart, OneToOne} {
			tr := translate(t, queries.Named()[name], mode, Options{QueryName: "run"})
			wantDFS, _ := workload(t)
			wantRows, wantStats := runMR(t, tr, wantDFS)

			dfs, _ := workload(t)
			eng, err := mapreduce.NewEngine(dfs, mapreduce.SmallCluster())
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(context.Background(), tr, eng, nil, nil)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, mode, err)
			}
			if rows, err := res.Rows(); err != nil || !slices.EqualFunc(rows, wantRows, exec.Row.Identical) {
				t.Errorf("%s/%v: rows differ from the hand-written sequence", name, mode)
			}
			if !reflect.DeepEqual(res.Stats, wantStats) {
				t.Errorf("%s/%v: chain stats differ from the hand-written sequence", name, mode)
			}
			for _, j := range tr.Jobs {
				got, _ := dfs.Read(j.Output)
				want, _ := wantDFS.Read(j.Output)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%v: DFS file %s differs", name, mode, j.Output)
				}
			}
			// Nothing was installed from a store.
			var nf *mapreduce.FileNotFoundError
			for _, a := range tr.Artifacts() {
				if _, err := dfs.Read(ArtifactPath(a.Fingerprint)); !errors.As(err, &nf) {
					t.Errorf("%s/%v: DFS holds a reuse artifact (err %v)", name, mode, err)
				}
			}
			// The rewrite that ran is the identity: the plan's own jobs.
			rp := res.Reuse
			if rp.Skipped != 0 || rp.Hits != 0 || rp.Misses != 0 || !reflect.DeepEqual(rp.Jobs, tr.Jobs) {
				t.Errorf("%s/%v: nil-store rewrite is not the identity (skipped %d, hits %d, misses %d, %d/%d jobs)",
					name, mode, rp.Skipped, rp.Hits, rp.Misses, len(rp.Jobs), len(tr.Jobs))
			}
		}
	}
}

// TestRunFailureRecordsNothing: Record is the last of Run's four steps, so a
// chain that fails, a result that cannot be read and a run whose context
// stops it all leave the store as it was — a failed query must never publish
// an artifact — while the same plan, run to the end, records one artifact
// per job.
func TestRunFailureRecordsNothing(t *testing.T) {
	tr := translate(t, queries.Named()["Q18"], YSmart, Options{QueryName: "run"})
	run := func(tr *Translation, dfs *mapreduce.DFS, store *reuse.Store) error {
		eng, err := mapreduce.NewEngine(dfs, mapreduce.SmallCluster())
		if err != nil {
			t.Fatal(err)
		}
		_, err = Run(context.Background(), tr, eng, store, nil)
		return err
	}

	store := reuse.NewStore(0, nil)
	dfs, _ := workload(t, "orders")
	if err := run(tr, dfs, store); err == nil {
		t.Fatal("chain over a missing table did not fail")
	}
	if store.Len() != 0 {
		t.Errorf("failed chain recorded %d artifacts", store.Len())
	}

	// A result the schema cannot decode: the chain runs, ReadResult fails.
	unreadable := *tr
	unreadable.OutputSchema = &exec.Schema{Cols: tr.OutputSchema.Cols[:1]}
	dfs, _ = workload(t)
	if err := run(&unreadable, dfs, store); err == nil {
		t.Fatal("result read with a one-column schema did not fail")
	}
	if _, err := dfs.Read(tr.Output); err != nil {
		t.Fatal("the chain did not run before the result read failed")
	}
	if store.Len() != 0 {
		t.Errorf("unreadable result recorded %d artifacts", store.Len())
	}

	dfs, _ = workload(t)
	if err := run(tr, dfs, store); err != nil {
		t.Fatal(err)
	}
	if store.Len() != len(tr.Jobs) {
		t.Errorf("completed run recorded %d artifacts, want %d", store.Len(), len(tr.Jobs))
	}

	// A stopped run is a failed chain. A context done before the run starts
	// runs no job. One that the chain's first job cancels from inside a
	// mapper stops the chain before its next work item: no dependent job
	// starts, and the store holds what it held — the run above's artifacts,
	// which share no table with this chain, so none of its jobs is skipped.
	multi := translate(t, queries.Named()["Q-CSA"], OneToOne, Options{QueryName: "stop"})
	dependents := 0
	for _, j := range multi.Jobs {
		if readsIntermediate(multi.Jobs, j) {
			dependents++
		}
	}
	if dependents == 0 {
		t.Fatalf("Q-CSA one-to-one is %d independent jobs, want a chain", len(multi.Jobs))
	}
	keys, bytes := store.Keys(), store.BytesStored()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dfs, _ = workload(t)
	eng := newEngine(t, dfs)
	if res, err := Run(ctx, multi, eng, store, nil); res != nil || !errors.Is(err, context.Canceled) || eng.Now() != 0 {
		t.Errorf("cancelled context: result %v, err %v, simulated clock %v; want no job run", res, err, eng.Now())
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	for _, j := range multi.Jobs {
		if readsIntermediate(multi.Jobs, j) {
			continue
		}
		for i := range j.Inputs {
			j.Inputs[i].Mapper = hookedMapper{j.Inputs[i].Mapper, cancel}
		}
	}
	dfs, _ = workload(t)
	if res, err := Run(ctx, multi, newEngine(t, dfs), store, nil); res != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled mid-chain: result %v, err %v", res, err)
	}
	var nf *mapreduce.FileNotFoundError
	for _, j := range multi.Jobs {
		if _, err := dfs.Read(j.Output); readsIntermediate(multi.Jobs, j) && !errors.As(err, &nf) {
			t.Errorf("job %s ran after the chain was cancelled", j.Name)
		}
	}
	if !reflect.DeepEqual(store.Keys(), keys) || store.BytesStored() != bytes {
		t.Errorf("a stopped run changed the store: %d keys, %d bytes; want %d, %d", len(store.Keys()), store.BytesStored(), len(keys), bytes)
	}
}

// TestRunVerifiesOnlyWhatItPublishes: the check that guards the store runs
// exactly when there is something to record. A fresh result whose fields
// the schema cannot parse is refused in the decoder's own words and records
// nothing; a full-chain hit publishes nothing, so Run does not parse what it
// serves — its reader does.
func TestRunVerifiesOnlyWhatItPublishes(t *testing.T) {
	tr := translate(t, queries.Named()["Q18"], YSmart, Options{QueryName: "run"})
	mistyped := *tr
	cols := append([]exec.Column(nil), tr.OutputSchema.Cols...)
	for i := range cols {
		if cols[i].Type == exec.TypeString {
			cols[i].Type = exec.TypeInt
		}
	}
	mistyped.OutputSchema = &exec.Schema{Cols: cols}

	store := reuse.NewStore(0, nil)
	dfs, _ := workload(t)
	_, err := Run(context.Background(), &mistyped, newEngine(t, dfs), store, nil)
	_, readErr := mistyped.ReadResult(dfs)
	if err == nil || readErr == nil || err.Error() != readErr.Error() || !strings.Contains(err.Error(), "parse int field") {
		t.Fatalf("mistyped result: Run fails with %v, ReadResult with %v; want one parse-int error", err, readErr)
	}
	if store.Len() != 0 {
		t.Errorf("unverifiable result recorded %d artifacts", store.Len())
	}

	dfs, _ = workload(t)
	cold, err := Run(context.Background(), tr, newEngine(t, dfs), store, nil)
	if err != nil || store.Len() != len(tr.Jobs) {
		t.Fatalf("cold run: %v, %d of %d artifacts recorded", err, store.Len(), len(tr.Jobs))
	}

	// The mistyped schema, which no line of the root artifact satisfies, runs
	// clean on a full-chain hit; the true schema reads back the cold rows.
	dfs, _ = workload(t)
	hit, err := Run(context.Background(), &mistyped, newEngine(t, dfs), store, nil)
	if err != nil || hit.Reuse.Skipped != len(tr.Jobs) {
		t.Fatalf("full-chain hit under an unparseable schema: %v; Run verified a result it had nothing to record for", err)
	}
	if _, err := hit.Rows(); err == nil || err.Error() != readErr.Error() {
		t.Errorf("reading the hit under the mistyped schema: %v, want %v", err, readErr)
	}
	warm, err := Run(context.Background(), tr, newEngine(t, dfs), store, nil)
	if err != nil || len(warm.Reuse.Jobs) != 0 {
		t.Fatalf("warm run: %v, %d jobs ran", err, len(warm.Reuse.Jobs))
	}
	coldRows, _ := cold.Rows()
	warmRows, err := warm.Rows()
	if err != nil || len(warmRows) == 0 || !slices.EqualFunc(warmRows, coldRows, exec.Row.Identical) {
		t.Errorf("full-chain hit serves %d rows (%v), the cold run %d", len(warmRows), err, len(coldRows))
	}
}

func newEngine(t *testing.T, dfs *mapreduce.DFS) *mapreduce.Engine {
	t.Helper()
	eng, err := mapreduce.NewEngine(dfs, mapreduce.SmallCluster())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// hookedMapper is a mapper class whose instances call hook before each line
// their instance of mapper maps.
type hookedMapper struct {
	mapper mapreduce.Mapper
	hook   func()
}

func (m hookedMapper) NewMapTask() mapreduce.MapTask {
	task := m.mapper.NewMapTask()
	return mapreduce.MapperFunc(func(line string, emit mapreduce.Emit) error {
		m.hook()
		return task.Map(line, emit)
	})
}
