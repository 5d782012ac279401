package cmf

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
)

// TestSlabGrowsFromDemand pins the arena's allocation policy: a cold slab
// allocates exactly the requests it is given, a warm one nothing, carvings
// never overlap or reach one another, and a slab whose key groups keep
// outgrowing its chunks ends up with one chunk that holds them all.
func TestSlabGrowsFromDemand(t *testing.T) {
	var s slab[int]
	group := func(sizes ...int) [][]int {
		s.reset()
		out := make([][]int, len(sizes))
		for i, n := range sizes {
			out[i] = s.take(n)
			if len(out[i]) != n || cap(out[i]) != n {
				t.Fatalf("take(%d): len %d cap %d", n, len(out[i]), cap(out[i]))
			}
			for k := range out[i] {
				out[i][k] = i
			}
		}
		for i, w := range out {
			for _, v := range w {
				if v != i {
					t.Fatalf("carving %d of %v was overwritten by carving %d", i, sizes, v)
				}
			}
		}
		return out
	}
	group(5, 3, 8)
	if got := []int{len(s.chunks[0]), len(s.chunks[1]), len(s.chunks[2])}; !reflect.DeepEqual(got, []int{5, 3, 8}) {
		t.Errorf("cold slab holds chunks of %v, want the three requests", got)
	}
	if s.take(0) != nil {
		t.Error("take(0) must not carve")
	}
	warm := testing.AllocsPerRun(20, func() {
		s.reset()
		s.take(5)
		s.take(3)
		s.take(8)
	})
	if warm != 0 {
		t.Errorf("a warm slab allocated %v times for requests it has served", warm)
	}
	group(2, 2, 2, 2) // all four fit the first chunk and the second
	if len(s.chunks) != 3 {
		t.Errorf("smaller requests grew the slab to %d chunks", len(s.chunks))
	}
	for n := 9; len(s.chunks) <= maxChunks; n++ {
		group(n) // each outgrows every chunk so far
	}
	total := 0
	for _, c := range s.chunks {
		total += len(c)
	}
	group(1)
	if len(s.chunks) != 1 || len(s.chunks[0]) != total {
		t.Errorf("after outgrowing %d chunks the slab holds %d, want one of %d elements", maxChunks, len(s.chunks), total)
	}
}

// TestCutterGrowsFromDemand pins the chunk cutter's policy: the first chunk
// is the first request, a cut that does not fit starts a chunk the size of
// the request or of everything cut so far, whichever is larger, capped at
// maxChunkBytes unless the request alone is larger — and no string it
// handed out ever changes.
func TestCutterGrowsFromDemand(t *testing.T) {
	var c cutter
	var got, want []string
	total, chunks := 0, 0
	for i, n := range []int{5, 3, 8, 20, 100, 1000, 3000, 5000, 9000, 7, 4100, 4100} {
		p := []byte(strings.Repeat(string(rune('a'+i)), n))
		got, want = append(got, c.cut(p)), append(want, string(p))
		p[0] = '!' // the cut is a copy
		// The builder holds nothing but this cut when the cut started a chunk.
		if c.b.Len() == n {
			chunks++
			// The allocator may round a chunk up to its size class.
			if size := max(n, min(total, maxChunkBytes)); c.b.Cap() < size || c.b.Cap() > size+size/4+16 {
				t.Errorf("cut of %d after %d bytes started a %d-byte chunk, want about %d", n, total, c.b.Cap(), size)
			}
		}
		total += n
	}
	if chunks < 8 {
		t.Errorf("%d chunks for cuts that outgrow every chunk so far: the sizing went unchecked", chunks)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("cut %d changed: %.20q, want %.20q", i, got[i], want[i])
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { sinkString = c.cut([]byte("abc")) }); allocs != 0 {
		t.Errorf("a short cut costs %v allocations amortised, want 0", allocs)
	}
}

// arenaGroup is one reduce key group for the lifetime test: tagged values
// of the job's single input, some excluded from some streams.
type arenaGroup struct {
	key    string
	values []string
}

// arenaJob wraps a random operator DAG (op_test.go's generator) in a common
// job whose streams share one input and whose every operator is written,
// so a key group's output lines expose every slot.
func arenaJob(ops []Op, nStreams int) *CommonJob {
	streams := make([]Stream, nStreams)
	for id := range streams {
		streams[id].ID = id
	}
	outputs := make([]OutputSpec, len(ops))
	for i, op := range ops {
		outputs[i] = OutputSpec{Op: op.Name(), Tag: op.Name()}
	}
	return &CommonJob{
		Name:    "arena",
		Inputs:  []CommonInput{{Path: "in", Decode: decodeClicks, Schema: ints(2), Streams: streams}},
		Ops:     ops,
		Outputs: outputs,
		Output:  "out",
	}
}

var errPoison = errors.New("poisoned row")

// TestReusedInstanceMatchesFreshInstances is the arena's lifetime proof: on
// random operator DAGs, one reducer instance reused across many key groups
// of very different sizes — its slot table, exclusion scratch, arena,
// accumulators with their COUNT(DISTINCT) sets, and line chunks recycled
// every time, also after a failed group — produces the output lines, error
// text, work and per-operator row counts of a fresh instance per key
// group, which never recycles anything.
func TestReusedInstanceMatchesFreshInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	failures := 0
	for iter := 0; iter < 400; iter++ {
		nStreams := 1 + rng.Intn(3)
		ops := randomDAG(rng, nStreams)
		for _, op := range ops {
			if a, ok := op.(*AggOp); ok && iter%2 == 1 {
				// As wide as the MAX it replaces, and drawing nothing from
				// rng, so the DAGs stay the ones this seed always drew: the
				// generator bounds no join's fan-out, and other draws chain
				// joins whose output exhausts memory.
				a.Aggs[1].Kind = exec.AggCountDistinct
			}
			if f, ok := op.(*FilterOp); ok && rng.Intn(4) == 0 {
				pred := f.Pred
				f.Pred = func(r exec.Row) (bool, error) {
					if !r[0].IsNull() && r[0].I == 3 {
						return false, errPoison
					}
					return pred(r)
				}
			}
		}
		groups := make([]arenaGroup, 2+rng.Intn(10))
		for g := range groups {
			groups[g].key = fmt.Sprint(g)
			size := 1 + rng.Intn(4)
			if rng.Intn(4) == 0 {
				size += rng.Intn(6) // now and then a group that outgrows the chunks
			}
			for v := 0; v < size; v++ {
				var excluded []int
				for id := 0; id < nStreams; id++ {
					if rng.Intn(3) == 0 {
						excluded = append(excluded, id)
					}
				}
				groups[g].values = append(groups[g].values,
					EncodeTagged(0, excluded, intRow(int64(rng.Intn(4)), int64(rng.Intn(8)))))
			}
		}

		type result struct {
			lines    [][]string
			errs     []string
			work     int64
			dispatch []mapreduce.OpDispatch
		}
		run := func(reused bool) result {
			job, err := arenaJob(ops, nStreams).Build()
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			factory := job.Reducer
			var res result
			// What the instances return from Done, summed index by index
			// the way the engine sums a job's tasks.
			done := func(task mapreduce.ReduceTask) {
				c := task.Done()
				res.work += c.Work
				if res.dispatch == nil {
					res.dispatch = make([]mapreduce.OpDispatch, len(c.Dispatch))
				}
				for i, d := range c.Dispatch {
					res.dispatch[i].Op = d.Op
					res.dispatch[i].InRows += d.InRows
					res.dispatch[i].OutRows += d.OutRows
				}
			}
			var task mapreduce.ReduceTask = factory.NewReduceTask()
			for _, g := range groups {
				if !reused {
					done(task)
					task = factory.NewReduceTask()
				}
				var lines []string
				err := task.Reduce(g.key, g.values, func(line string) { lines = append(lines, line) })
				res.lines = append(res.lines, lines)
				res.errs = append(res.errs, fmt.Sprint(err))
			}
			done(task)
			return res
		}
		fresh, reused := run(false), run(true)
		if !reflect.DeepEqual(reused, fresh) {
			t.Fatalf("iter %d: a reused instance differs from fresh instances\n got %+v\nwant %+v", iter, reused, fresh)
		}
		for _, e := range fresh.errs {
			if e != "<nil>" {
				failures++
			}
		}
	}
	if failures == 0 {
		t.Error("no key group failed: the error path of a reused instance went untested")
	}
}

// TestAllocBudgetTinyJob is the guard for per-job fixed cost: a 30-line,
// six-key, one-worker job — the size of the benchmark's plan_cold tables,
// where every per-job constant is paid several times per statement — must
// not allocate more than it did before mappers had task instances (168
// allocations; 300 before reducers had instances and arenas). Chunks,
// slabs, scratch rows and tables grow from the demand seen; nothing has a
// floor.
func TestAllocBudgetTinyJob(t *testing.T) {
	dfs := mapreduce.NewDFS()
	var lineitem, part [][4]int64
	for i := int64(0); i < 30; i++ {
		lineitem = append(lineitem, [4]int64{i % 6, 1 + (i/6)*(i/6), 1000 + i, 0}) // per key: 1, 2, 5, 10, 17
	}
	for k := int64(0); k < 6; k++ {
		part = append(part, [4]int64{k, 0, 0, 0})
	}
	writeClicks(dfs, "lineitem", lineitem...)
	writeClicks(dfs, "part", part...)
	job, err := q17Job().Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := mapreduce.NewEngine(dfs, mapreduce.SmallCluster())
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(1)
	var stats *mapreduce.JobStats
	got := testing.AllocsPerRun(50, func() {
		if stats, err = e.RunJob(job); err != nil {
			t.Fatal(err)
		}
	})
	if stats.ReduceGroups != 6 || stats.ReduceOutputRecords == 0 {
		t.Fatalf("job reduced %d groups to %d rows: not the job this budget is about", stats.ReduceGroups, stats.ReduceOutputRecords)
	}
	const before = 168
	t.Logf("30-line Q17-shaped job: %v allocations (before map task instances: %d)", got, before)
	if got > before {
		t.Errorf("30-line Q17-shaped job: %v allocations, the %d before map task instances is the budget", got, before)
	}
}
