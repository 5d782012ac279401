package mapreduce

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"ysmart/internal/obs"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(NewDFS(), SmallCluster())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// wordCountJob builds the canonical wordcount job over input path.
func wordCountJob(in, out string) *Job {
	return &Job{
		Name: "wordcount",
		Inputs: []Input{{
			Path: in,
			Mapper: MapperFunc(func(line string, emit Emit) error {
				for _, w := range strings.Fields(line) {
					emit(w, "1")
				}
				return nil
			}),
		}},
		Reducer: ReducerFunc(func(key string, values []string, emit func(string)) error {
			n := 0
			for _, v := range values {
				c, err := strconv.Atoi(v)
				if err != nil {
					return err
				}
				n += c
			}
			emit(key + "\t" + strconv.Itoa(n))
			return nil
		}),
		Output: out,
	}
}

func TestWordCountEndToEnd(t *testing.T) {
	e := newTestEngine(t)
	e.DFS().Write("in", []string{"a b a", "c b a", ""})
	stats, err := e.RunJob(wordCountJob("in", "out"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.DFS().Read("out")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a\t3", "b\t2", "c\t1"}
	if strings.Join(out, "|") != strings.Join(want, "|") {
		t.Errorf("output = %v, want %v", out, want)
	}
	if stats.MapInputRecords != 3 {
		t.Errorf("map input records = %d, want 3", stats.MapInputRecords)
	}
	if stats.MapOutputRecords != 6 {
		t.Errorf("map output records = %d, want 6", stats.MapOutputRecords)
	}
	if stats.ReduceGroups != 3 {
		t.Errorf("reduce groups = %d, want 3", stats.ReduceGroups)
	}
	if stats.TotalTime() <= 0 || stats.MapTime <= 0 || stats.ReduceTime <= 0 {
		t.Errorf("times not positive: %+v", stats)
	}
}

func TestDeterministicOutputOrder(t *testing.T) {
	e := newTestEngine(t)
	e.DFS().Write("in", []string{"z y x w v u t s r q p"})
	var outs []string
	for i := 0; i < 3; i++ {
		if _, err := e.RunJob(wordCountJob("in", "out")); err != nil {
			t.Fatal(err)
		}
		lines, _ := e.DFS().Read("out")
		outs = append(outs, strings.Join(lines, "|"))
	}
	if outs[0] != outs[1] || outs[1] != outs[2] {
		t.Error("job output is not deterministic across runs")
	}
	if !sort.StringsAreSorted(strings.Split(outs[0], "|")) {
		t.Error("reduce keys not processed in sorted order")
	}
}

func TestCombinerShrinksShuffle(t *testing.T) {
	lines := make([]string, 200)
	for i := range lines {
		lines[i] = "k" + strconv.Itoa(i%4)
	}
	mapper := MapperFunc(func(line string, emit Emit) error {
		emit(line, "1")
		return nil
	})
	reducer := ReducerFunc(func(key string, values []string, emit func(string)) error {
		n := 0
		for _, v := range values {
			c, _ := strconv.Atoi(v)
			n += c
		}
		emit(key + "\t" + strconv.Itoa(n))
		return nil
	})
	combiner := CombinerFunc(func(key string, values []string) ([]string, error) {
		n := 0
		for _, v := range values {
			c, err := strconv.Atoi(v)
			if err != nil {
				return nil, err
			}
			n += c
		}
		return []string{strconv.Itoa(n)}, nil
	})

	run := func(withCombiner bool) (*JobStats, []string) {
		e := newTestEngine(t)
		e.DFS().Write("in", lines)
		j := &Job{
			Name:    "agg",
			Inputs:  []Input{{Path: "in", Mapper: mapper}},
			Reducer: reducer,
			Output:  "out",
		}
		if withCombiner {
			j.Combiner = combiner
		}
		s, err := e.RunJob(j)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := e.DFS().Read("out")
		return s, out
	}

	plain, outPlain := run(false)
	combined, outCombined := run(true)
	if strings.Join(outPlain, "|") != strings.Join(outCombined, "|") {
		t.Fatalf("combiner changed the result: %v vs %v", outPlain, outCombined)
	}
	if combined.MapOutputRecords >= plain.MapOutputRecords {
		t.Errorf("combiner did not shrink map output: %d >= %d",
			combined.MapOutputRecords, plain.MapOutputRecords)
	}
	if combined.ShuffleBytes >= plain.ShuffleBytes {
		t.Errorf("combiner did not shrink shuffle: %d >= %d",
			combined.ShuffleBytes, plain.ShuffleBytes)
	}
}

func TestMapOnlyJob(t *testing.T) {
	e := newTestEngine(t)
	e.DFS().Write("in", []string{"1", "2", "3", "4"})
	j := &Job{
		Name: "sp",
		Inputs: []Input{{
			Path: "in",
			Mapper: MapperFunc(func(line string, emit Emit) error {
				n, _ := strconv.Atoi(line)
				if n%2 == 0 {
					emit("", line)
				}
				return nil
			}),
		}},
		Output: "out",
	}
	stats, err := e.RunJob(j)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := e.DFS().Read("out")
	if strings.Join(out, "|") != "2|4" {
		t.Errorf("output = %v, want [2 4]", out)
	}
	if !stats.MapOnly || stats.ShuffleBytes != 0 || stats.ReduceTime != 0 {
		t.Errorf("map-only stats wrong: %+v", stats)
	}
}

func TestMultiInputTaggedJoin(t *testing.T) {
	e := newTestEngine(t)
	e.DFS().Write("users", []string{"1\talice", "2\tbob"})
	e.DFS().Write("orders", []string{"1\tbook", "1\tpen", "3\tcar"})
	tagMapper := func(tag string) Mapper {
		return MapperFunc(func(line string, emit Emit) error {
			parts := strings.SplitN(line, "\t", 2)
			emit(parts[0], tag+":"+parts[1])
			return nil
		})
	}
	j := &Job{
		Name: "join",
		Inputs: []Input{
			{Path: "users", Mapper: tagMapper("U")},
			{Path: "orders", Mapper: tagMapper("O")},
		},
		Reducer: ReducerFunc(func(key string, values []string, emit func(string)) error {
			var users, orders []string
			for _, v := range values {
				switch {
				case strings.HasPrefix(v, "U:"):
					users = append(users, v[2:])
				case strings.HasPrefix(v, "O:"):
					orders = append(orders, v[2:])
				}
			}
			for _, u := range users {
				for _, o := range orders {
					emit(key + "\t" + u + "\t" + o)
				}
			}
			return nil
		}),
		Output: "out",
	}
	if _, err := e.RunJob(j); err != nil {
		t.Fatal(err)
	}
	out, _ := e.DFS().Read("out")
	want := []string{"1\talice\tbook", "1\talice\tpen"}
	if strings.Join(out, "|") != strings.Join(want, "|") {
		t.Errorf("join output = %v, want %v", out, want)
	}
}

func TestRunChainDependencies(t *testing.T) {
	e := newTestEngine(t)
	e.DFS().Write("in", []string{"b a", "c a"})
	j1 := wordCountJob("in", "mid")
	j2 := &Job{
		Name: "filter",
		Inputs: []Input{{
			Path: "mid",
			Mapper: MapperFunc(func(line string, emit Emit) error {
				if !strings.HasPrefix(line, "a") {
					emit("", line)
				}
				return nil
			}),
		}},
		Output:    "out",
		DependsOn: []*Job{j1},
	}
	// Submit out of order: RunChain must topologically sort.
	stats, err := e.RunChain([]*Job{j2, j1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.NumJobs() != 2 || stats.Jobs[0].Name != "wordcount" {
		t.Fatalf("chain order wrong: %v", stats.Jobs)
	}
	out, _ := e.DFS().Read("out")
	if strings.Join(out, "|") != "b\t1|c\t1" {
		t.Errorf("output = %v", out)
	}
	if stats.TotalTime() <= stats.Jobs[0].TotalTime() {
		t.Error("chain total should exceed first job time")
	}
}

func TestChainCycleAndMissingDeps(t *testing.T) {
	a := wordCountJob("in", "a")
	b := wordCountJob("in", "b")
	a.DependsOn = []*Job{b}
	b.DependsOn = []*Job{a}
	e := newTestEngine(t)
	if _, err := e.RunChain([]*Job{a, b}); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle err = %v", err)
	}
	c := wordCountJob("in", "c")
	c.DependsOn = []*Job{wordCountJob("in", "x")}
	if _, err := e.RunChain([]*Job{c}); err == nil || !strings.Contains(err.Error(), "not in the chain") {
		t.Errorf("missing dep err = %v", err)
	}
}

func TestJobValidation(t *testing.T) {
	e := newTestEngine(t)
	bad := []*Job{
		{},
		{Name: "x"},
		{Name: "x", Inputs: []Input{{Path: "p"}}},
		{Name: "x", Inputs: []Input{{Path: "p", Mapper: MapperFunc(nil)}}},
		{Name: "x", Inputs: []Input{{Path: "p", Mapper: MapperFunc(func(string, Emit) error { return nil })}}, NumReduceTasks: -1, Output: "o"},
	}
	for i, j := range bad {
		if _, err := e.RunJob(j); err == nil {
			t.Errorf("job %d validated, want error", i)
		}
	}
}

func TestMissingInputFile(t *testing.T) {
	e := newTestEngine(t)
	_, err := e.RunJob(wordCountJob("nope", "out"))
	var nf *FileNotFoundError
	if err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("err = %v, want file-not-found", err)
	}
	_ = nf
}

// ----- Cost model behaviour ------------------------------------------------

// timedRun executes wordcount on a given cluster over ~lineCount lines and
// returns the stats.
func timedRun(t *testing.T, cluster *Cluster, lineCount int) *JobStats {
	t.Helper()
	dfs := NewDFS()
	lines := make([]string, lineCount)
	for i := range lines {
		lines[i] = fmt.Sprintf("key%d value filler filler filler", i%50)
	}
	dfs.Write("in", lines)
	e, err := NewEngine(dfs, cluster)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.RunJob(wordCountJob("in", "out"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDataScaleIncreasesTime(t *testing.T) {
	small := SmallCluster()
	small.DataScale = 1
	big := SmallCluster()
	big.DataScale = 1000
	ts := timedRun(t, small, 2000)
	tb := timedRun(t, big, 2000)
	if tb.TotalTime() <= ts.TotalTime() {
		t.Errorf("scaled run not slower: %f vs %f", tb.TotalTime(), ts.TotalTime())
	}
	if tb.MapInputBytes != ts.MapInputBytes {
		t.Error("DataScale must not change raw counters")
	}
}

func TestMoreNodesFaster(t *testing.T) {
	c1 := EC2Cluster(10)
	c1.DataScale = 50000
	c2 := EC2Cluster(100)
	c2.DataScale = 50000
	t1 := timedRun(t, c1, 2000)
	t2 := timedRun(t, c2, 2000)
	if t2.TotalTime() >= t1.TotalTime() {
		t.Errorf("100 workers not faster than 10: %f vs %f", t2.TotalTime(), t1.TotalTime())
	}
}

// Compression must hurt on an isolated cluster with the default constants —
// the paper's Fig. 11 finding (§VII.E third conclusion).
func TestCompressionHurtsWithDefaults(t *testing.T) {
	nc := EC2Cluster(10)
	nc.DataScale = 50000
	c := EC2Cluster(10)
	c.DataScale = 50000
	c.Compress = true
	tn := timedRun(t, nc, 2000)
	tc := timedRun(t, c, 2000)
	if tc.ShuffleBytes >= tn.ShuffleBytes {
		t.Errorf("compression did not shrink shuffle bytes: %d vs %d", tc.ShuffleBytes, tn.ShuffleBytes)
	}
	if tc.TotalTime() <= tn.TotalTime() {
		t.Errorf("compression should cost more time with default constants: %f vs %f",
			tc.TotalTime(), tn.TotalTime())
	}
}

func TestContentionAddsGapsDeterministically(t *testing.T) {
	run := func(seed int64) []float64 {
		cluster := FacebookCluster(seed)
		cluster.DataScale = 1
		dfs := NewDFS()
		dfs.Write("in", []string{"a b", "b c"})
		e, err := NewEngine(dfs, cluster)
		if err != nil {
			t.Fatal(err)
		}
		j1 := wordCountJob("in", "m")
		j2 := wordCountJob("m", "o")
		j2.DependsOn = []*Job{j1}
		j3 := wordCountJob("o", "p")
		j3.DependsOn = []*Job{j2}
		st, err := e.RunChain([]*Job{j1, j2, j3})
		if err != nil {
			t.Fatal(err)
		}
		var gaps []float64
		for _, js := range st.Jobs {
			gaps = append(gaps, js.GapBefore)
		}
		return gaps
	}
	g1 := run(7)
	g2 := run(7)
	g3 := run(8)
	if g1[0] != 0 {
		t.Error("first job must have no gap")
	}
	if g1[1] <= 0 || g1[2] <= 0 {
		t.Errorf("later jobs should have contention gaps: %v", g1)
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Errorf("same seed produced different gaps: %v vs %v", g1, g2)
		}
	}
	if g1[1] == g3[1] && g1[2] == g3[2] {
		t.Error("different seeds should produce different gaps")
	}
}

func TestClusterValidate(t *testing.T) {
	bad := []*Cluster{
		{Name: "x", Nodes: 0, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1, DataScale: 1, Cost: DefaultCostModel()},
		{Name: "x", Nodes: 1, MapSlotsPerNode: 0, ReduceSlotsPerNode: 1, DataScale: 1, Cost: DefaultCostModel()},
		{Name: "x", Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1, DataScale: 0, Cost: DefaultCostModel()},
	}
	for i, c := range bad {
		if _, err := NewEngine(NewDFS(), c); err == nil {
			t.Errorf("cluster %d validated, want error", i)
		}
	}
	c := SmallCluster()
	c.Contention = Contention{Enabled: true, SlotFactor: 2}
	if err := c.Validate(); err == nil {
		t.Error("slot factor > 1 should fail validation")
	}
}

// ----- helpers ---------------------------------------------------------------

func TestSplitChunksProperties(t *testing.T) {
	f := func(nLines uint8, nChunks uint8) bool {
		lines := make([]string, int(nLines))
		for i := range lines {
			lines[i] = strconv.Itoa(i)
		}
		n := int(nChunks)
		if n == 0 {
			n = 1
		}
		chunks := splitChunks(lines, n)
		// Concatenation preserves order and content.
		var rejoined []string
		for _, c := range chunks {
			rejoined = append(rejoined, c...)
		}
		if len(rejoined) != len(lines) {
			return false
		}
		for i := range lines {
			if rejoined[i] != lines[i] {
				return false
			}
		}
		// Chunk sizes differ by at most one (when more than one chunk).
		if len(chunks) > 1 {
			minSz, maxSz := len(chunks[0]), len(chunks[0])
			for _, c := range chunks {
				if len(c) < minSz {
					minSz = len(c)
				}
				if len(c) > maxSz {
					maxSz = len(c)
				}
			}
			if maxSz-minSz > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPartitionOfStableAndInRange(t *testing.T) {
	f := func(key string) bool {
		p := partitionOf(key, 7)
		return p >= 0 && p < 7 && p == partitionOf(key, 7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDFSBasics(t *testing.T) {
	d := NewDFS()
	if d.Exists("x") {
		t.Error("fresh DFS should be empty")
	}
	d.Write("x", []string{"a", "bb"})
	if got := d.SizeBytes("x"); got != 5 { // "a\n" + "bb\n"
		t.Errorf("SizeBytes = %d, want 5", got)
	}
	lines, err := d.Read("x")
	if err != nil || len(lines) != 2 {
		t.Fatalf("Read = %v, %v", lines, err)
	}
	// Write copies its input.
	src := []string{"z"}
	d.Write("y", src)
	src[0] = "mutated"
	got, _ := d.Read("y")
	if got[0] != "z" {
		t.Error("Write did not copy input slice")
	}
	if list := d.List(); strings.Join(list, ",") != "x,y" {
		t.Errorf("List = %v", list)
	}
	d.Delete("x")
	if d.Exists("x") {
		t.Error("Delete failed")
	}
	if _, err := d.Read("x"); err == nil {
		t.Error("Read of deleted file should fail")
	}
	if d.SizeBytes("missing") != 0 {
		t.Error("SizeBytes of missing file should be 0")
	}
}

// TestDFSDigest: a file's digest follows its bytes, not its slice — the
// same lines in a fresh slice digest equal, any changed line or line
// boundary digests apart — and an absent path has none.
func TestDFSDigest(t *testing.T) {
	d := NewDFS()
	col := obs.NewCollector()
	reg := obs.NewRegistry()
	d.Instrument(col, reg, nil)
	digest := func(path string, lines ...string) int64 {
		t.Helper()
		d.Write(path, lines)
		col.Reset()
		v, ok := d.Digest(path)
		if !ok || v == 0 {
			t.Fatalf("Digest(%q) = %d, %v; want a non-zero digest", path, v, ok)
		}
		if col.Len() != 0 {
			t.Errorf("Digest emitted %d trace events; it must be unobserved", col.Len())
		}
		return v
	}
	base := digest("a", "x\t1", "y\t2")
	if got := digest("b", "x\t1", "y\t2"); got != base {
		t.Errorf("equal lines digest %d and %d", base, got)
	}
	for _, lines := range [][]string{{"x\t1", "y\t3"}, {"x\t1y\t2"}, {"x\t1", "y\t2", ""}, {}} {
		if got := digest("c", lines...); got == base {
			t.Errorf("lines %q digest like %q", lines, []string{"x\t1", "y\t2"})
		}
	}
	long := make([]string, 5000)
	for i := range long {
		long[i] = strings.Repeat("z", i%17)
	}
	if digest("d", long...) != digest("e", long...) {
		t.Error("a file larger than the hash buffer digests unstably")
	}
	if reg.Value("ysmart_dfs_reads_total") != 0 {
		t.Error("Digest counted as a read")
	}
	if v, ok := d.Digest("missing"); ok || v != 0 {
		t.Errorf("Digest of an absent path = %d, %v; want 0, false", v, ok)
	}
}

// TestAllocBudgetDFS: reading and installing a file on an instrumented DFS
// allocates nothing — every served query does both, with a registry
// attached.
func TestAllocBudgetDFS(t *testing.T) {
	d := NewDFS()
	d.Instrument(nil, obs.NewRegistry(), nil)
	lines := []string{"a\t1", "b\t2"}
	d.WriteShared("f", lines)
	if got := testing.AllocsPerRun(100, func() { d.WriteShared("f", lines) }); got != 0 {
		t.Errorf("WriteShared: %v allocations per call, budget 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { _, _ = d.Read("f") }); got != 0 {
		t.Errorf("Read: %v allocations per call, budget 0", got)
	}
}

// TestAllocBudgetPartitionOf pins the partitioner at zero allocations: the
// fault path calls it for every key of every replayed reduce task.
func TestAllocBudgetPartitionOf(t *testing.T) {
	key := "the\tquick\x00fox"
	if got := testing.AllocsPerRun(200, func() { sinkInt += partitionOf(key, 7) }); got != 0 {
		t.Errorf("partitionOf: %v allocations per call, want 0", got)
	}
}

// TestAllocBudgetCombineTask pins what combineTask's grouping is sized by:
// the number of pairs (one values slice) and the number of keys, never the
// number of values per key — sixteen times the values of the same four
// keys must cost no further allocation.
func TestAllocBudgetCombineTask(t *testing.T) {
	one := []string{"1"}
	count := CombinerFunc(func(string, []string) ([]string, error) { return one, nil })
	pairsOf := func(perKey int) []kv {
		var pairs []kv
		for i := 0; i < 4*perKey; i++ {
			pairs = append(pairs, kv{key: string(rune('a' + i%4)), value: "v"})
		}
		return pairs
	}
	allocs := func(pairs []kv) float64 {
		return testing.AllocsPerRun(50, func() {
			out, err := combineTask([]pairList{{pairs: pairs}}, count)
			if err != nil || len(out.pairs) != 4 {
				t.Fatalf("combineTask = %v, %v; want 4 pairs", out.pairs, err)
			}
		})
	}
	few, many := allocs(pairsOf(16)), allocs(pairsOf(256))
	if many > few {
		t.Errorf("combineTask: %v allocations for 256 values per key, %v for 16: grouping grows with the values", many, few)
	}
	const budget = 12
	if few > budget {
		t.Errorf("combineTask over 4 keys: %v allocations, budget %d", few, budget)
	}
}

var sinkInt int
