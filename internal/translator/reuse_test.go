package translator

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/obs"
	"ysmart/internal/queries"
	"ysmart/internal/reuse"
)

// runReuse executes a reuse-rewritten chain and returns its result rows.
func runReuse(t *testing.T, rp *ReusePlan, dfs *mapreduce.DFS) ([]string, *mapreduce.ChainStats) {
	t.Helper()
	eng, err := mapreduce.NewEngine(dfs, mapreduce.SmallCluster())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.RunChain(rp.Jobs)
	if err != nil {
		t.Fatalf("run rewritten chain: %v", err)
	}
	rows, err := rp.ReadResult(dfs)
	if err != nil {
		t.Fatalf("read result: %v", err)
	}
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = exec.EncodeRow(r)
	}
	return lines, stats
}

// TestApplyReuseColdThenWarm is the tentpole round trip: a cold run
// records every job's output; a second translation of the same query
// (different label — a different query as far as the cache and job names
// are concerned) then skips the whole chain and reads the result straight
// from the store's artifact.
func TestApplyReuseColdThenWarm(t *testing.T) {
	dfs, _ := workload(t)
	store := reuse.NewStore(0, nil)
	sql := queries.Named()["Q18"]

	tr := translate(t, sql, YSmart, Options{QueryName: "q18-cold"})
	rp := ApplyReuseAt(tr, store, dfs, nil)
	if rp.Hits != 0 || rp.Skipped != 0 || len(rp.Jobs) != len(tr.Jobs) {
		t.Fatalf("cold rewrite touched the chain: hits=%d skipped=%d jobs=%d/%d",
			rp.Hits, rp.Skipped, len(rp.Jobs), len(tr.Jobs))
	}
	coldLines, coldStats := runReuse(t, rp, dfs)
	rp.Record(store, dfs, coldStats)
	if store.Len() != len(tr.Jobs) {
		t.Fatalf("store holds %d entries after recording %d jobs", store.Len(), len(tr.Jobs))
	}

	tr2 := translate(t, sql, YSmart, Options{QueryName: "q18-warm"})
	rp2 := ApplyReuseAt(tr2, store, dfs, nil)
	if len(rp2.Jobs) != 0 {
		t.Fatalf("warm rewrite kept %d jobs, want 0", len(rp2.Jobs))
	}
	if rp2.Skipped != rp2.Total || rp2.Hits != rp2.Total || rp2.Total != len(tr2.Jobs) {
		t.Errorf("warm accounting: hits=%d skipped=%d total=%d, want all %d",
			rp2.Hits, rp2.Skipped, rp2.Total, len(tr2.Jobs))
	}
	if !strings.HasPrefix(rp2.Output, "restore/") {
		t.Errorf("warm output %q does not point into restore/", rp2.Output)
	}
	if rp2.ArtifactBytes <= 0 || rp2.PredictedSavedSeconds <= 0 {
		t.Errorf("warm savings not accounted: bytes=%d seconds=%v",
			rp2.ArtifactBytes, rp2.PredictedSavedSeconds)
	}
	warmLines, _ := runReuse(t, rp2, dfs)
	if !reflect.DeepEqual(warmLines, coldLines) {
		t.Errorf("warm rows differ from cold rows:\n got  %v\n want %v", warmLines, coldLines)
	}
}

// TestApplyReusePartial evicts exactly the result-producing artifact: the
// warm chain must re-run that one job against restored intermediate
// artifacts and reproduce the cold rows.
func TestApplyReusePartial(t *testing.T) {
	dfs, _ := workload(t)
	store := reuse.NewStore(0, nil)
	sql := queries.Named()["Q18"]

	tr := translate(t, sql, YSmart, Options{QueryName: "q18-cold"})
	rp := ApplyReuseAt(tr, store, dfs, nil)
	coldLines, coldStats := runReuse(t, rp, dfs)
	rp.Record(store, dfs, coldStats)

	key, ok := RootArtifactKey(tr)
	if !ok {
		t.Fatal("no root artifact key")
	}
	store.Forget(key)

	tr2 := translate(t, sql, YSmart, Options{QueryName: "q18-warm"})
	rp2 := ApplyReuseAt(tr2, store, dfs, nil)
	if len(rp2.Jobs) != 1 || rp2.Skipped != rp2.Total-1 {
		t.Fatalf("partial rewrite ran %d of %d jobs (skipped %d), want exactly the final job",
			len(rp2.Jobs), rp2.Total, rp2.Skipped)
	}
	for _, in := range rp2.Jobs[0].Inputs {
		if !strings.HasPrefix(in.Path, "restore/") && !strings.HasPrefix(in.Path, "tables/") {
			t.Errorf("surviving job reads %q; intermediate inputs must be restored artifacts", in.Path)
		}
	}
	warmLines, _ := runReuse(t, rp2, dfs)
	if !reflect.DeepEqual(warmLines, coldLines) {
		t.Errorf("partial warm rows differ from cold rows")
	}
	// Record after the partial run refreshes the root artifact: the next
	// rewrite is fully warm again.
	rp2.Record(store, dfs, nil)
	rp3 := ApplyReuseAt(translate(t, sql, YSmart, Options{QueryName: "q18-warm2"}), store, dfs, nil)
	if len(rp3.Jobs) != 0 {
		t.Errorf("chain not fully warm after partial run recorded (%d jobs left)", len(rp3.Jobs))
	}
}

// TestApplyReuseNeverMutatesSource: the plan cache hands one translation to
// every concurrent session, so the rewrite must clone — the source jobs' input
// paths and dependency edges stay exactly as lowered even when the
// rewrite repoints inputs at restore/ artifacts.
func TestApplyReuseNeverMutatesSource(t *testing.T) {
	dfs, _ := workload(t)
	store := reuse.NewStore(0, nil)
	sql := queries.Named()["Q18"]

	tr := translate(t, sql, YSmart, Options{QueryName: "q18"})
	type jobShape struct {
		inputs  []string
		deps    []*mapreduce.Job
		jobPtrs *mapreduce.Job
	}
	var before []jobShape
	for _, j := range tr.Jobs {
		var ins []string
		for _, in := range j.Inputs {
			ins = append(ins, in.Path)
		}
		before = append(before, jobShape{inputs: ins, deps: append([]*mapreduce.Job(nil), j.DependsOn...), jobPtrs: j})
	}

	rp := ApplyReuseAt(tr, store, dfs, nil)
	_, stats := runReuse(t, rp, dfs)
	rp.Record(store, dfs, stats)
	if key, ok := RootArtifactKey(tr); ok {
		store.Forget(key) // force a partial rewrite, the path that repoints inputs
	}
	ApplyReuseAt(tr, store, dfs, nil)

	for i, j := range tr.Jobs {
		if j != before[i].jobPtrs {
			t.Fatalf("job %d pointer changed", i)
		}
		var ins []string
		for _, in := range j.Inputs {
			ins = append(ins, in.Path)
		}
		if !reflect.DeepEqual(ins, before[i].inputs) {
			t.Errorf("job %d inputs mutated: %v, want %v", i, ins, before[i].inputs)
		}
		if !reflect.DeepEqual(j.DependsOn, before[i].deps) {
			t.Errorf("job %d DependsOn mutated", i)
		}
	}
}

// TestOptimizedArtifactsDisjoint: a MANIMAL-optimized translation must
// never consume artifacts recorded by a plain one (or vice versa) — the
// optimizer dimension is part of the store key, mirroring CacheKeyOpt.
func TestOptimizedArtifactsDisjoint(t *testing.T) {
	if ArtifactKey("fp", true) == ArtifactKey("fp", false) {
		t.Fatal("optimized and plain keys collide")
	}
	if ArtifactPath("fp", true) == ArtifactPath("fp", false) {
		t.Fatal("optimized and plain artifact paths collide")
	}

	dfs, _ := workload(t)
	store := reuse.NewStore(0, nil)
	sql := queries.Named()["Q-AGG"]

	tr := translate(t, sql, YSmart, Options{QueryName: "plain"})
	rp := ApplyReuseAt(tr, store, dfs, nil)
	_, stats := runReuse(t, rp, dfs)
	rp.Record(store, dfs, stats)

	opt := translate(t, sql, YSmart, Options{QueryName: "optimized"})
	opt.Optimized = true // what optanalysis.ApplyTranslation sets
	rpOpt := ApplyReuseAt(opt, store, dfs, nil)
	if rpOpt.Hits != 0 || len(rpOpt.Jobs) != len(opt.Jobs) {
		t.Errorf("optimized translation consumed plain artifacts (hits=%d, jobs=%d/%d)",
			rpOpt.Hits, len(rpOpt.Jobs), len(opt.Jobs))
	}
}

// TestArtifactsOnDemandShared: a translation fingerprints its jobs on the
// first reuse lookup, not when lowered, and the plan cache hands one
// translation to every session, so first lookups race. Eight goroutines
// calling ApplyReuseAt on one fresh translation all read the one artifact
// slice, computed once, and it equals the fingerprints computed eagerly from
// a second translation of the same statement.
func TestArtifactsOnDemandShared(t *testing.T) {
	store := reuse.NewStore(0, nil)
	dfs := mapreduce.NewDFS()
	for name, sql := range queries.Named() {
		tr := translate(t, sql, YSmart, Options{QueryName: "shared"})
		ref := translate(t, sql, YSmart, Options{QueryName: "shared"})
		want := ref.fp.compute(ref)
		if tr.fp.artifacts != nil {
			t.Fatalf("%s: artifacts computed at translation time", name)
		}
		const sessions = 8
		got := make([][]JobArtifact, sessions)
		plans := make([]*ReusePlan, sessions)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				plans[g] = ApplyReuseAt(tr, store, dfs, nil)
				got[g] = tr.Artifacts()
			}()
		}
		close(start)
		wg.Wait()
		if !reflect.DeepEqual(tr.fp.artifacts, want) {
			t.Errorf("%s: on-demand artifacts %v, eager %v", name, tr.fp.artifacts, want)
		}
		for g := range got {
			if &got[g][0] != &tr.fp.artifacts[0] {
				t.Errorf("%s: session %d read its own artifact slice, not the translation's one", name, g)
			}
			for i, rec := range plans[g].records {
				if rec.key != ArtifactKey(want[i].Fingerprint, false) {
					t.Errorf("%s: session %d looked job %d up under %q, want %q", name, g, i, rec.key, ArtifactKey(want[i].Fingerprint, false))
				}
			}
		}
	}
}

// TestArtifactParity: every translation of every workload query under
// every mode carries exactly one artifact per job, each with a fingerprint
// and its base-table closure.
func TestArtifactParity(t *testing.T) {
	for name, sql := range queries.Named() {
		for _, mode := range []Mode{OneToOne, PigLike, ICTCOnly, YSmart} {
			tr := translate(t, sql, mode, Options{QueryName: "parity"})
			arts := tr.Artifacts()
			if len(arts) != len(tr.Jobs) {
				t.Errorf("%s/%v: %d artifacts for %d jobs", name, mode, len(arts), len(tr.Jobs))
				continue
			}
			for i, a := range arts {
				if a.Fingerprint == "" {
					t.Errorf("%s/%v job %d: empty fingerprint", name, mode, i)
				}
				if len(a.Tables) == 0 {
					t.Errorf("%s/%v job %d: no base tables", name, mode, i)
				}
			}
		}
	}
}

// TestReuseContentRule: without a caller snapshot the rewrite versions each
// base table by the digest of its current lines, so an artifact is served
// exactly while the tables it was computed from hold the bytes it was
// computed from. Q18's first job reads lineitem and orders; the two after
// it also read customer.
func TestReuseContentRule(t *testing.T) {
	sql := queries.Named()["Q18"]
	customer := TablePath("customer")
	cases := []struct {
		name   string
		mutate func(dfs *mapreduce.DFS)
		// hits is the number of jobs still served from the store; with
		// fewer than all, the surviving chain re-runs and must reproduce a
		// plain run over the mutated tables — or fail if a table is gone.
		hits    int
		missing bool
	}{
		{"rewritten-lines-miss", func(dfs *mapreduce.DFS) {
			lines, _ := dfs.Read(customer)
			dfs.Write(customer, lines[:len(lines)-1])
		}, 1, false},
		{"deleted-table-misses", func(dfs *mapreduce.DFS) {
			dfs.Delete(customer)
		}, 1, true},
		{"same-lines-fresh-slice-hit", func(dfs *mapreduce.DFS) {
			lines, _ := dfs.Read(customer)
			dfs.Write(customer, append([]string(nil), lines...))
		}, 3, false},
		{"job-output-writes-hit", func(dfs *mapreduce.DFS) {
			dfs.Write("tmp/other/job-1", []string{"x"})
			dfs.Write("restore/other", []string{"y"})
		}, 3, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dfs, _ := workload(t)
			reg := obs.NewRegistry()
			store := reuse.NewStore(0, reg)
			tr := translate(t, sql, YSmart, Options{QueryName: "q18"})
			rp := ApplyReuseAt(tr, store, dfs, nil)
			_, stats := runReuse(t, rp, dfs)
			rp.Record(store, dfs, stats)

			tc.mutate(dfs)
			warm := ApplyReuseAt(translate(t, sql, YSmart, Options{QueryName: "q18-warm"}), store, dfs, nil)
			if warm.Hits != tc.hits || warm.Misses != len(tr.Jobs)-tc.hits {
				t.Fatalf("hits=%d misses=%d, want %d hit(s) of %d", warm.Hits, warm.Misses, tc.hits, len(tr.Jobs))
			}
			if got := reg.Value("ysmart_reuse_invalidations_total"); got != float64(warm.Misses) {
				t.Errorf("invalidations = %v, want one per missed artifact (%d)", got, warm.Misses)
			}
			if tc.missing {
				eng, err := mapreduce.NewEngine(dfs, mapreduce.SmallCluster())
				if err != nil {
					t.Fatal(err)
				}
				var nf *mapreduce.FileNotFoundError
				if _, err := eng.RunChain(warm.Jobs); !errors.As(err, &nf) || nf.Path != customer {
					t.Fatalf("chain over a deleted table: err = %v, want %s not found", err, customer)
				}
				return
			}
			got, _ := runReuse(t, warm, dfs)
			plain, _ := runMR(t, translate(t, sql, YSmart, Options{QueryName: "q18-plain"}), dfs)
			want := make([]string, len(plain))
			for i, r := range plain {
				want[i] = exec.EncodeRow(r)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("rows differ from a plain run over the current tables:\n got  %v\n want %v", got, want)
			}
		})
	}
}

// TestReuseRecordAfterOverwrite: a table overwritten while a
// content-versioned run reads it leaves the run's outputs computed from
// either content, so Record stores none of them — under the digest taken
// before the run they could be served to a runtime still holding the old
// lines. Equal lines rewritten mid-run change nothing.
func TestReuseRecordAfterOverwrite(t *testing.T) {
	for _, changed := range []bool{true, false} {
		dfs, _ := workload(t)
		store := reuse.NewStore(0, nil)
		rp := ApplyReuseAt(translate(t, queries.Named()["Q-AGG"], YSmart, Options{QueryName: "agg"}), store, dfs, nil)
		_, stats := runReuse(t, rp, dfs)
		clicks, _ := dfs.Read(TablePath("clicks"))
		if changed {
			clicks = clicks[1:]
		}
		dfs.Write(TablePath("clicks"), clicks)
		rp.Record(store, dfs, stats)
		want := len(rp.Jobs)
		if changed {
			want = 0
		}
		if got := store.Len(); got != want {
			t.Errorf("table changed during the run = %v: %d entries recorded, want %d", changed, got, want)
		}
	}
}
