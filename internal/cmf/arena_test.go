package cmf

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"weak"

	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
)

// TestSlabGrowsFromDemand pins the arena's growth rule: a cold slab's first
// chunk is its first request; a request no kept chunk has room for appends
// a chunk of the request or of the capacity already held, whichever is
// larger; chunks are never consolidated, so a group's carving extent (its
// elements plus the slack it skipped at the ends of chunks) bounds the
// chunk count at ceil(log2(extent/first request)) + 1; carvings never
// overlap or reach one another; and a warm slab allocates nothing.
func TestSlabGrowsFromDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for seq := 0; seq < 200; seq++ {
		var s slab[int]
		var groups [][]int
		first, peak := 0, 0
		for g := 0; g < 1+rng.Intn(12); g++ {
			sizes := make([]int, 1+rng.Intn(6))
			for i := range sizes {
				sizes[i] = rng.Intn(1 + rng.Intn(200))
			}
			groups = append(groups, sizes)
			s.reset()
			out := make([][]int, len(sizes))
			for i, n := range sizes {
				chunks, held := len(s.chunks), s.held
				out[i] = s.take(n)
				if n == 0 {
					if out[i] != nil {
						t.Fatal("take(0) must not carve")
					}
					continue
				}
				if len(out[i]) != n || cap(out[i]) != n {
					t.Fatalf("take(%d): len %d cap %d", n, len(out[i]), cap(out[i]))
				}
				switch {
				case len(s.chunks) == chunks:
				case len(s.chunks) != chunks+1:
					t.Fatalf("take(%d) appended %d chunks", n, len(s.chunks)-chunks)
				case chunks == 0 && len(s.chunks[0]) != n:
					t.Fatalf("a cold slab's first chunk holds %d, want the request %d", len(s.chunks[0]), n)
				case len(s.chunks[chunks]) != max(n, held):
					t.Fatalf("take(%d) holding %d appended a chunk of %d, want %d", n, held, len(s.chunks[chunks]), max(n, held))
				}
				if first == 0 {
					first = n
				}
				extent := s.off
				for _, c := range s.chunks[:s.cur] {
					extent += len(c)
				}
				peak = max(peak, extent)
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
			if first > 0 {
				if bound := int(math.Ceil(math.Log2(float64(peak)/float64(first)))) + 1; len(s.chunks) > bound {
					t.Fatalf("%d chunks after groups %v: first request %d, peak extent %d, bound %d", len(s.chunks), groups, first, peak, bound)
				}
			}
		}
		warm := testing.AllocsPerRun(5, func() {
			for _, sizes := range groups {
				s.reset()
				for _, n := range sizes {
					s.take(n)
				}
			}
		})
		if warm != 0 {
			t.Fatalf("a warm slab allocated %v times for groups %v it has served", warm, groups)
		}
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
// text, work and per-operator row counts of a fresh instance on a new
// arena per key group, which never recycles anything. So does one instance
// that starts on an arena another DAG's instance released: what the free
// list hands on carries nothing from the job that grew it.
func TestReusedInstanceMatchesFreshInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	failures := 0
	var dirty func() // reduces the previous DAG's key groups on one instance
	for iter := 0; iter < 400; iter++ {
		nStreams := 1 + rng.Intn(3)
		ops := randomDAG(rng, nStreams, 9) // the largest key group below
		for _, op := range ops {
			if a, ok := op.(*AggOp); ok && iter%2 == 1 {
				// As wide as the MAX it replaces.
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
		job, err := arenaJob(ops, nStreams).Build()
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		factory := job.Reducer
		// run reduces the groups on one instance (reused) or on a fresh
		// one per group, each starting on a new arena.
		run := func(reused bool) result {
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
			if !reused {
				dropArenas()
			}
			var task mapreduce.ReduceTask = factory.NewReduceTask()
			for _, g := range groups {
				if !reused {
					done(task)
					dropArenas()
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
		fresh := run(false)
		dropArenas()
		if reused := run(true); !reflect.DeepEqual(reused, fresh) {
			t.Fatalf("iter %d: a reused instance differs from fresh instances\n got %+v\nwant %+v", iter, reused, fresh)
		}
		if dirty != nil {
			held := holdArenas()
			dirty()
			if len(*held) != 1 {
				t.Fatalf("iter %d: the previous DAG's instance left %d arenas on the free list, want 1", iter, len(*held))
			}
			if foreign := run(true); !reflect.DeepEqual(foreign, fresh) {
				t.Fatalf("iter %d: an instance on an arena another DAG released differs from fresh instances\n got %+v\nwant %+v", iter, foreign, fresh)
			}
			runtime.KeepAlive(held)
		}
		dirty = func() {
			task := factory.NewReduceTask()
			for _, g := range groups {
				_ = task.Reduce(g.key, g.values, func(string) {})
			}
			task.Done()
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

// dropArenas empties the free list, so the next instance starts on a new
// arena.
func dropArenas() {
	arenas.mu.Lock()
	defer arenas.mu.Unlock()
	arenas.free = weak.Pointer[[]*arena]{}
}

// holdArenas gives the free list a new, empty list that the caller holds
// strongly, so no collection takes what instances release onto it while
// the caller looks.
func holdArenas() *[]*arena {
	held := new([]*arena)
	arenas.mu.Lock()
	defer arenas.mu.Unlock()
	arenas.free = weak.Make(held)
	return held
}

// isZero reports whether every element of s is its type's zero value.
func isZero[T any](s []T) bool {
	for i := range s {
		if !reflect.ValueOf(&s[i]).Elem().IsZero() {
			return false
		}
	}
	return true
}

// TestArenaPoolReclaimed pins the free list's lifetime. A reduce phase's
// Done releases its arena onto the list holding nothing of the phase:
// every slab element, accumulator and aggregation group is zero and the
// group index is empty, so a pooled arena pins no chunk of a finished
// job. An instance on a released arena reduces as one on a new arena did.
// Once no instance is live, two collections reclaim the list, weakly held,
// and the next instance, on a new arena, reduces the same again; the list
// its Done starts is reclaimed the same way.
func TestArenaPoolReclaimed(t *testing.T) {
	job, err := q17Job().Build()
	if err != nil {
		t.Fatal(err)
	}
	key, values := q17Group()
	// phase reduces the Q17 group and a smaller one on one instance, as a
	// worker's reduce phase does, and ends it.
	phase := func() []string {
		var out []string
		emit := func(line string) { out = append(out, line) }
		task := job.Reducer.NewReduceTask()
		for _, vs := range [][]string{values, values[3:]} {
			if err := task.Reduce(key, vs, emit); err != nil {
				t.Fatal(err)
			}
		}
		task.Done()
		return out
	}
	released := func(pass string, held *[]*arena) {
		if len(*held) != 1 {
			t.Fatalf("%s: %d arenas on the free list after Done, want 1", pass, len(*held))
		}
		a := (*held)[0]
		if len(a.vals.chunks) == 0 || cap(a.accs) == 0 {
			t.Fatalf("%s: the released arena carved no values or accumulators: the check below pins nothing", pass)
		}
		for _, c := range a.vals.chunks {
			if !isZero(c) {
				t.Errorf("%s: a released value chunk holds values: %v", pass, c)
			}
		}
		for _, c := range a.rows.chunks {
			if !isZero(c) {
				t.Errorf("%s: a released row chunk holds rows", pass)
			}
		}
		if !isZero(a.accs[:cap(a.accs)]) || !isZero(a.groups[:cap(a.groups)]) || len(a.index) != 0 {
			t.Errorf("%s: the released arena keeps accumulators, groups or index entries", pass)
		}
	}

	held := holdArenas()
	fresh := phase() // on a new arena: the list was empty
	released("new arena", held)
	if got := phase(); !reflect.DeepEqual(got, fresh) {
		t.Errorf("on a released arena: %q, on a new one %q", got, fresh)
	}
	released("released arena", held)
	runtime.KeepAlive(held)

	reclaimed := func(pass string) {
		runtime.GC()
		runtime.GC()
		if arenas.free.Value() != nil {
			t.Fatalf("%s: two collections with no instance live left the free list reachable", pass)
		}
	}
	reclaimed("the list held above")
	if got := phase(); !reflect.DeepEqual(got, fresh) {
		t.Errorf("after the list was reclaimed: %q, on a new arena %q", got, fresh)
	}
	reclaimed("the list Done started")
}

// TestAllocBudgetTinyJob is the guard for per-job fixed cost: a 30-line,
// six-key, one-worker job — the size of the benchmark's plan_cold tables,
// where every per-job constant is paid several times per statement — must
// not allocate more than it did before mappers had task instances (168
// allocations; 300 before reducers had instances and arenas), its
// reducer instance on a new arena. Chunks, slabs, scratch rows and tables
// grow from the demand seen; nothing has a floor. When the free list holds
// the arena the last run released, as it does from job to job while a
// collection has not taken it, the run's instance takes that arena and
// grows no slab chunk, and the job allocates at most warmBudget (54
// before arenas were pooled).
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
	var cs *mapreduce.ChainStats
	runChain := func() {
		if cs, err = e.RunChain([]*mapreduce.Job{job}); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(50, func() {
		dropArenas()
		runChain()
	})
	stats := cs.Jobs[0]
	if stats.ReduceGroups != 6 || stats.ReduceOutputRecords == 0 {
		t.Fatalf("job reduced %d groups to %d rows: not the job this budget is about", stats.ReduceGroups, stats.ReduceOutputRecords)
	}
	const before, warmBudget = 168, 40
	t.Logf("30-line Q17-shaped job: %v allocations on a new arena (before map task instances: %d)", got, before)
	if got > before {
		t.Errorf("30-line Q17-shaped job: %v allocations on a new arena, the %d before map task instances is the budget", got, before)
	}

	held := holdArenas()
	runChain()
	if len(*held) != 1 {
		t.Fatalf("a one-worker job released %d arenas, want 1", len(*held))
	}
	a := (*held)[0]
	vals, rows := len(a.vals.chunks), len(a.rows.chunks)
	warm := testing.AllocsPerRun(50, runChain)
	t.Logf("30-line Q17-shaped job: %v allocations on the arena the last run released", warm)
	if warm > warmBudget {
		t.Errorf("30-line Q17-shaped job: %v allocations on the arena the last run released, budget %d", warm, warmBudget)
	}
	if len(*held) != 1 || (*held)[0] != a || len(a.vals.chunks) != vals || len(a.rows.chunks) != rows {
		t.Errorf("runs on the released arena grew its slabs from %d+%d chunks to %d+%d, or took another",
			vals, rows, len(a.vals.chunks), len(a.rows.chunks))
	}
	runtime.KeepAlive(held)
}
