package mapreduce

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"weak"
)

// scratchChain is a two-job chain over inputs a and b that uses every part
// of the scratch: the first job's combiner groups on each worker's scratch,
// and both jobs' maps index into it and shuffle on its driver grouping.
func scratchChain() []*Job {
	first := geometryJob(geometryMapper())
	first.Name, first.Combiner, first.Output = "sums", &sumCombiner{}, "sums"
	second := geometryJob(geometryMapper())
	second.Name = "regroup"
	second.Inputs[1] = Input{Path: "sums", Mapper: MapperFunc(func(line string, emit Emit) error {
		key, rest, _ := strings.Cut(line, "\t")
		sum, _, _ := strings.Cut(rest, "\t")
		emit(key, sum)
		return nil
	})}
	return []*Job{first, second}
}

// chainRun is what a chain leaves: its stats and both jobs' output rows.
type chainRun struct {
	stats      *ChainStats
	sums, rows []string
}

func runScratchChain(t *testing.T, e *Engine) chainRun {
	t.Helper()
	stats, err := e.RunChain(scratchChain())
	if err != nil {
		t.Fatal(err)
	}
	run := chainRun{stats: stats}
	if run.sums, err = e.DFS().Read("sums"); err != nil {
		t.Fatal(err)
	}
	if run.rows, err = e.DFS().Read("out"); err != nil {
		t.Fatal(err)
	}
	return run
}

// TestScratchReclaimedBetweenChains pins the scratch's lifetime. After a
// chain the scratch holds no string, so it pins no chunk of the chain's
// jobs but the free ones, and no Output holds its index or any chunk;
// only the engine's weak pointer reaches it, so two collections reclaim it
// and every array it held, each free chunk among them. The
// chain on a scratch carried warm from the last and the chain on one built
// anew both give a fresh engine's rows and JobStats, at 1, 2 and 8
// workers.
func TestScratchReclaimedBetweenChains(t *testing.T) {
	engine := func(workers int) *Engine {
		dfs := NewDFS()
		dfs.Write("a", geometryInput(5000, 400, 0))
		dfs.Write("b", geometryInput(3000, 400, 3))
		e, err := NewEngine(dfs, geometryCluster())
		if err != nil {
			t.Fatal(err)
		}
		e.SetWorkers(workers)
		return e
	}
	for _, workers := range []int{1, 2, 8} {
		want := runScratchChain(t, engine(workers))
		if len(want.sums) == 0 || len(want.rows) == 0 || len(want.stats.Jobs) != 2 {
			t.Fatalf("workers=%d: %d and %d rows from %d jobs: not the chain this test is about", workers, len(want.sums), len(want.rows), len(want.stats.Jobs))
		}
		e := engine(workers)
		arrays := cleanScratch(t, e)
		for _, carried := range []string{"warm", "reclaimed"} {
			if carried == "reclaimed" {
				runtime.GC()
				runtime.GC()
				if e.scratchRef.Value() != nil {
					t.Fatalf("workers=%d: the scratch outlived two collections after its chain: something but the weak pointer holds it", workers)
				}
				for i, live := range arrays {
					if live() {
						t.Fatalf("workers=%d: the scratch's array %d outlived two collections after its chain", workers, i)
					}
				}
			}
			if got := runScratchChain(t, e); !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d, %s scratch: the chain differs from a fresh engine's\n got %+v\nwant %+v", workers, carried, got.stats, want.stats)
			}
		}
	}
}

// cleanScratch runs the chain on e, holding e's scratch past it, checks
// that the scratch holds no string and no Output its index or a chunk, and
// returns a probe for each array the scratch holds, the free chunks among
// them, that reports whether it is still allocated. Both of the chain's
// jobs copy their output lines, so each frees its chunks at its end.
func cleanScratch(t *testing.T, e *Engine) (arrays []func() bool) {
	t.Helper()
	sc := e.scratch()
	runScratchChain(t, e)
	for w := range e.outs {
		o := &e.outs[w]
		if o.index != nil || o.free != nil || o.started != nil {
			t.Fatalf("worker %d's Output still holds an array the scratch lent it after the chain", w)
		}
		if o.buf != nil {
			t.Fatalf("worker %d's Output still holds a chunk after a chain of jobs that free theirs", w)
		}
	}
	chunks := 0
	arrays = append(arrays, weakArray(sc.spans))
	groupings := []*grouping{&sc.shuffle}
	for w := range sc.workers {
		ws := &sc.workers[w]
		groupings = append(groupings, &ws.combine)
		arrays = append(arrays, weakArray(ws.index), weakArray(ws.chunks), weakArray(ws.started))
		if slices.ContainsFunc(ws.started[:cap(ws.started)], func(c []byte) bool { return c != nil }) {
			t.Fatalf("worker %d's chunk log still holds a chunk after the chain", w)
		}
		for _, c := range ws.chunks {
			// A chunk under 16 B may share a tiny-allocator block with
			// objects that outlive it, which would keep the probe set.
			if cap(c) >= 16 {
				arrays = append(arrays, weakArray(c))
				chunks++
			}
		}
	}
	if chunks == 0 {
		t.Fatal("the chain freed no chunk: not the chain this test is about")
	}
	used := 0
	for i, g := range groupings {
		if len(g.count) != 0 || slices.ContainsFunc(g.groups[:cap(g.groups)], func(kg keyGroup) bool { return kg.key != "" || kg.values != nil }) ||
			slices.ContainsFunc(g.values[:cap(g.values)], func(v string) bool { return v != "" }) {
			t.Fatalf("grouping %d still holds a string after the chain", i)
		}
		used += cap(g.values)
		arrays = append(arrays, weakArray(g.groups), weakArray(g.values))
	}
	if used == 0 {
		t.Fatal("the chain left the scratch's groupings empty: not the chain this test is about")
	}
	runtime.KeepAlive(sc)
	return arrays
}

// weakArray reports whether s's array is still allocated (false for no
// array), without keeping it so.
func weakArray[T any](s []T) func() bool {
	if cap(s) == 0 {
		return func() bool { return false }
	}
	p := weak.Make(&s[:1][0])
	return func() bool { return p.Value() != nil }
}
