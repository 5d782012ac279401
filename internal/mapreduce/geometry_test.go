package mapreduce

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"ysmart/internal/obs"
)

// The tests of the host's execution geometry (shuffle.go): whatever way the
// worker count cuts a job into morsels, shuffle partitions and key runs,
// rows, JobStats, attempt logs and trace bytes are those of the sequential
// engine.

// sumReducer is a ReduceTaskFactory in the shape of the CMF common reducer:
// instances keep scratch across keys, count their work privately and return
// it at Done. The reducer itself only counts the instances it handed out
// (the tests' probe, not part of the contract).
type sumReducer struct{ tasks atomic.Int64 }

func (r *sumReducer) NewReduceTask() ReduceTask {
	r.tasks.Add(1)
	return &sumTask{counts: ReduceCounts{Dispatch: []OpDispatch{{Op: "sum"}, {Op: "idle"}}}}
}

func (r *sumReducer) Reduce(key string, values []string, emit func(string)) error {
	return r.NewReduceTask().Reduce(key, values, emit)
}

type sumTask struct {
	line   []byte // reused from key to key: emitted lines must not alias it
	counts ReduceCounts
}

func (t *sumTask) Reduce(key string, values []string, emit func(string)) error {
	var sum int64
	for _, v := range values {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return err
		}
		sum += n
	}
	t.counts.Work += 2 * int64(len(values))
	t.counts.Dispatch[0].InRows += int64(len(values))
	t.counts.Dispatch[0].OutRows++
	t.line = append(t.line[:0], key...)
	t.line = strconv.AppendInt(append(t.line, '\t'), sum, 10)
	// The first and last value pin the values' map-output order.
	t.line = append(append(t.line, '\t'), values[0]...)
	t.line = append(append(t.line, '\t'), values[len(values)-1]...)
	emit(string(t.line))
	return nil
}

func (t *sumTask) Done() ReduceCounts { return t.counts }

// geometryInput is n lines "k<key> <i>" over nKeys keys, offset so that two
// inputs interleave their keys.
func geometryInput(n, nKeys, offset int) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("k%03d %d", (i*7+offset)%nKeys, i+offset)
	}
	return lines
}

func geometryMapper(failAt ...string) Mapper {
	return MapperFunc(func(line string, emit Emit) error {
		for _, bad := range failAt {
			if line == bad {
				return fmt.Errorf("bad line %q", line)
			}
		}
		key, value, _ := strings.Cut(line, " ")
		emit(key, value)
		return nil
	})
}

// geometryCluster makes input "a" (5000 lines) two simulated map tasks of
// three morsels each and input "b" (3000 lines) one task of three, with
// four reduce tasks.
func geometryCluster() *Cluster {
	c := testFaultCluster()
	c.Cost.SplitSize = 32 << 10
	return c
}

func geometryJob(mapper Mapper) *Job {
	return &Job{
		Name: "geometry",
		Inputs: []Input{
			{Path: "a", Mapper: mapper},
			{Path: "b", Mapper: mapper},
		},
		Reducer: &sumReducer{},
		Output:  "out",
	}
}

type geometryRun struct {
	rows  []string
	stats *JobStats
	trace []byte
	err   error
}

func runGeometry(t *testing.T, cluster *Cluster, job *Job, workers int) geometryRun {
	t.Helper()
	dfs := NewDFS()
	dfs.Write("a", geometryInput(5000, 400, 0))
	dfs.Write("b", geometryInput(3000, 400, 3))
	e, err := NewEngine(dfs, cluster)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(workers)
	col := obs.NewCollector()
	e.Instrument(col, nil)
	stats, err := e.RunJob(job)
	if err != nil {
		return geometryRun{err: err}
	}
	rows, err := dfs.Read(job.Output)
	if err != nil {
		t.Fatal(err)
	}
	return geometryRun{rows: rows, stats: stats, trace: obs.ChromeTrace(col.Events())}
}

// TestGeometryInvariantAcrossWorkers runs one synthetic job, whose inputs
// span several morsels, shuffle partitions and key runs, in every variant
// the engine distinguishes, at 1, 2 and 8 workers.
func TestGeometryInvariantAcrossWorkers(t *testing.T) {
	sumCombiner := benchJob().Combiner
	faulty := func() *Cluster {
		c := geometryCluster()
		c.Faults = &FaultPlan{Seed: 7, TaskFailureProb: 0.3, StragglerProb: 0.2, StragglerFactor: 5,
			NodeFailures: []NodeFailure{{Node: 2, At: 14}}}
		c.Speculation = Speculation{Enabled: true}
		return c
	}
	variants := []struct {
		name    string
		cluster func() *Cluster
		job     func() *Job
	}{
		{"plain", geometryCluster, func() *Job { return geometryJob(geometryMapper()) }},
		{"combiner", geometryCluster, func() *Job {
			j := geometryJob(geometryMapper())
			j.Combiner = sumCombiner
			return j
		}},
		{"prefilter", geometryCluster, func() *Job {
			j := geometryJob(geometryMapper())
			for i := range j.Inputs {
				j.Inputs[i].Prefilter = func(line string) bool { return !strings.HasSuffix(line, "7") }
			}
			return j
		}},
		{"map-only", geometryCluster, func() *Job {
			j := geometryJob(geometryMapper())
			j.Reducer = nil
			return j
		}},
		{"plain reducer", geometryCluster, func() *Job {
			j := geometryJob(geometryMapper())
			j.Reducer = ReducerFunc(func(key string, values []string, emit func(string)) error {
				emit(fmt.Sprintf("%s\t%d\t%s", key, len(values), values[len(values)-1]))
				return nil
			})
			return j
		}},
		{"faults", faulty, func() *Job { return geometryJob(geometryMapper()) }},
		{"faults, combiner, plain reducer", faulty, func() *Job {
			j := geometryJob(geometryMapper())
			j.Combiner = sumCombiner
			j.Reducer = wordCountJob("", "").Reducer
			return j
		}},
	}
	// The shape the variants share: three tasks of three morsels each, and
	// 8000 pairs over 400 keys — several shuffle partitions and several key
	// runs at 2 and at 8 workers, whichever reducer reduces them (that a
	// factory hands out an instance per run is TestGeometryReduceInstances').
	a, b := geometryInput(5000, 400, 0), geometryInput(3000, 400, 3)
	morsels, first := cutMorsels([]mapTask{{chunk: a[:2500]}, {chunk: a[2500:]}, {chunk: b}})
	if len(morsels) != 9 || !reflect.DeepEqual(first, []int{0, 3, 6, 9}) {
		t.Fatalf("cutMorsels: %d morsels, first = %v", len(morsels), first)
	}
	if p2, p8 := (&Engine{workers: 2}).hostPartitions(8000), (&Engine{workers: 8}).hostPartitions(8000); p2 != 2 || p8 != 3 {
		t.Fatalf("8000 pairs shuffle in %d partitions at 2 workers and %d at 8, want 2 and 3", p2, p8)
	}
	groups := make([]keyGroup, 400)
	for k := range groups {
		groups[k] = keyGroup{key: fmt.Sprintf("k%03d", k), values: make([]string, 20)}
	}
	if r2, r8 := len((&Engine{workers: 2}).cutRuns(groups, 8000)), len((&Engine{workers: 8}).cutRuns(groups, 8000)); r2 != 8 || r8 != 15 {
		t.Fatalf("400 keys of 20 values reduce in %d runs at 2 workers and %d at 8, want 8 and 15", r2, r8)
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			base := runGeometry(t, v.cluster(), v.job(), 1)
			if base.err != nil {
				t.Fatal(base.err)
			}
			if len(base.rows) == 0 || base.stats.NumMapTasks != 3 {
				t.Fatalf("%d rows from %d map tasks: the job is not the shape this test is about", len(base.rows), base.stats.NumMapTasks)
			}
			if strings.HasPrefix(v.name, "faults") && !base.stats.HasRecovery() {
				t.Fatal("the fault plan injected nothing")
			}
			for _, workers := range []int{2, 8} {
				got := runGeometry(t, v.cluster(), v.job(), workers)
				if got.err != nil {
					t.Fatal(got.err)
				}
				if !reflect.DeepEqual(got.rows, base.rows) {
					t.Errorf("workers=%d: rows differ from the sequential run", workers)
				}
				if !reflect.DeepEqual(got.stats, base.stats) {
					t.Errorf("workers=%d: JobStats differ\n got %+v\nwant %+v", workers, got.stats, base.stats)
				}
				if !bytes.Equal(got.trace, base.trace) {
					t.Errorf("workers=%d: trace bytes differ", workers)
				}
			}
		})
	}
}

// TestGeometryReduceInstances: what the factory's instances return from
// Done sums to the sequential run's counts at any worker count, and the host
// really cut the job (several instances) when it had workers to cut for.
func TestGeometryReduceInstances(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		job := geometryJob(geometryMapper())
		got := runGeometry(t, geometryCluster(), job, workers)
		if got.err != nil {
			t.Fatal(got.err)
		}
		if want := 2 * got.stats.ReduceInputRecords; got.stats.ReduceWorkRecords != want {
			t.Errorf("workers=%d: reduce work %d, want %d", workers, got.stats.ReduceWorkRecords, want)
		}
		// The operator that saw no rows is dropped.
		want := []OpDispatch{{Op: "sum", InRows: got.stats.ReduceInputRecords, OutRows: got.stats.ReduceGroups}}
		if !reflect.DeepEqual(got.stats.Dispatch, want) {
			t.Errorf("workers=%d: dispatch %+v, want %+v", workers, got.stats.Dispatch, want)
		}
		if tasks := job.Reducer.(*sumReducer).tasks.Load(); (workers == 1) != (tasks == 1) {
			t.Errorf("workers=%d: %d reducer instances", workers, tasks)
		}
	}
}

// TestReplayedReduceCountsDropped: under a fault plan that retries reduce
// tasks the reducer hands out extra instances for the replays, and what
// those return from Done never reaches JobStats — the counts are the
// fault-free run's.
func TestReplayedReduceCountsDropped(t *testing.T) {
	clean := runGeometry(t, geometryCluster(), geometryJob(geometryMapper()), 1)
	if clean.err != nil {
		t.Fatal(clean.err)
	}
	for _, workers := range []int{1, 8} {
		faulty := geometryCluster()
		faulty.Faults = &FaultPlan{Seed: 2, TaskFailureProb: 0.5}
		job := geometryJob(geometryMapper())
		got := runGeometry(t, faulty, job, workers)
		if got.err != nil {
			t.Fatal(got.err)
		}
		if got.stats.ReduceTaskRetries == 0 {
			t.Fatal("the fault plan retried no reduce task")
		}
		if tasks := job.Reducer.(*sumReducer).tasks.Load(); tasks < int64(1+got.stats.ReduceTaskRetries) {
			t.Errorf("workers=%d: %d instances for %d reduce retries: the replays did not run", workers, tasks, got.stats.ReduceTaskRetries)
		}
		if got.stats.ReduceWorkRecords != clean.stats.ReduceWorkRecords || !reflect.DeepEqual(got.stats.Dispatch, clean.stats.Dispatch) {
			t.Errorf("workers=%d: work %d dispatch %+v, want the fault-free run's %d %+v", workers,
				got.stats.ReduceWorkRecords, got.stats.Dispatch, clean.stats.ReduceWorkRecords, clean.stats.Dispatch)
		}
	}
}

// TestGeometryLowestMapErrorSurfaces: a mapper failing on two lines in
// different morsels reports the lower line at any worker count.
func TestGeometryLowestMapErrorSurfaces(t *testing.T) {
	a := geometryInput(5000, 400, 0)
	// Lines 1500 and 4000 of "a": morsel 1 of task 0 and morsel 1 of task 1.
	mapper := geometryMapper(a[4000], a[1500])
	for _, workers := range []int{1, 2, 8} {
		for trial := 0; trial < 5; trial++ {
			got := runGeometry(t, geometryCluster(), geometryJob(mapper), workers)
			if want := fmt.Sprintf("map a: bad line %q", a[1500]); got.err == nil || got.err.Error() != want {
				t.Fatalf("workers=%d: err = %v, want %s", workers, got.err, want)
			}
		}
	}
}

// TestGeometrySkewedKeyStillCuts: one key holding 90 % of the values makes
// one long run; the runs still cover every group exactly once, in order,
// with no empty run, and the job's output is the sequential run's.
func TestGeometrySkewedKeyStillCuts(t *testing.T) {
	var groups []keyGroup
	n := 0
	for k := 0; k < 200; k++ {
		size := 10
		if k == 60 {
			size = 18000
		}
		groups = append(groups, keyGroup{key: fmt.Sprintf("k%03d", k), values: make([]string, size)})
		n += size
	}
	e := &Engine{workers: 8}
	runs := e.cutRuns(groups, n)
	if len(runs) < 2 {
		t.Fatalf("%d runs: a skewed key list must still be cut", len(runs))
	}
	var covered []keyGroup
	for r, run := range runs {
		if len(run.groups) == 0 {
			t.Errorf("run %d of %d is empty", r, len(runs))
		}
		covered = append(covered, run.groups...)
	}
	if !reflect.DeepEqual(covered, groups) {
		t.Errorf("the %d runs do not cover the %d groups in order", len(runs), len(groups))
	}
	// One worker, one key or no key at all is one run over every group.
	for _, c := range []struct {
		runs   []keyRun
		groups []keyGroup
	}{
		{(&Engine{workers: 1}).cutRuns(groups, n), groups},
		{e.cutRuns(groups[:1], 18000), groups[:1]},
		{e.cutRuns(nil, 0), nil},
	} {
		if len(c.runs) != 1 || !reflect.DeepEqual(c.runs[0].groups, c.groups) {
			t.Errorf("%d runs over %d groups, want one run of all of them", len(c.runs), len(c.groups))
		}
	}

	skewed := func(workers int) geometryRun {
		dfs := NewDFS()
		lines := geometryInput(20000, 400, 0)
		for i := range lines {
			if i%10 != 0 {
				lines[i] = "hot " + strconv.Itoa(i)
			}
		}
		dfs.Write("a", lines)
		dfs.Write("b", nil)
		e, err := NewEngine(dfs, geometryCluster())
		if err != nil {
			t.Fatal(err)
		}
		e.SetWorkers(workers)
		job := geometryJob(geometryMapper())
		stats, err := e.RunJob(job)
		if err != nil {
			t.Fatal(err)
		}
		rows, _ := dfs.Read("out")
		return geometryRun{rows: rows, stats: stats}
	}
	base, got := skewed(1), skewed(8)
	if !reflect.DeepEqual(got.rows, base.rows) || !reflect.DeepEqual(got.stats, base.stats) {
		t.Error("skewed job differs between 1 and 8 workers")
	}
	if s := base.stats; s.MaxPartitionValues < 18000 || s.PartitionSkew() < 3 {
		t.Errorf("hot key holds 18000 of %d values on %d reduce tasks, yet max partition = %d values, skew %.2f",
			s.ReduceInputRecords, s.NumReduceTasks, s.MaxPartitionValues, s.PartitionSkew())
	}
}

// TestReducerSizes checks the per-reduce-task accounting against a direct
// count, on both sides of its stack buffer.
func TestReducerSizes(t *testing.T) {
	var groups []keyGroup
	for k := 0; k < 500; k++ {
		groups = append(groups, keyGroup{key: fmt.Sprintf("key-%d", k*k), values: make([]string, 1+k%7)})
	}
	for _, numReduce := range []int{1, 4, 64, 65, 2988} {
		perGroups, perValues := make([]int64, numReduce), make([]int64, numReduce)
		for _, g := range groups {
			p := partitionOf(g.key, numReduce)
			perGroups[p]++
			perValues[p] += int64(len(g.values))
		}
		var wantGroups, wantValues int64
		for p := range perGroups {
			wantGroups, wantValues = max(wantGroups, perGroups[p]), max(wantValues, perValues[p])
		}
		if gotGroups, gotValues := reducerSizes(groups, numReduce); gotGroups != wantGroups || gotValues != wantValues {
			t.Errorf("reducerSizes over %d reduce tasks = %d groups, %d values; want %d, %d",
				numReduce, gotGroups, gotValues, wantGroups, wantValues)
		}
	}
	s := JobStats{MapInputRecords: 200, MapOutputRecords: 300, ReduceInputRecords: 300, ReduceGroups: 30,
		NumReduceTasks: 4, MaxPartitionValues: 150, MaxPartitionGroups: 12}
	if s.ReplicationRate() != 1.5 || s.MeanPartitionValues() != 75 || s.MeanPartitionGroups() != 7.5 || s.PartitionSkew() != 2 {
		t.Errorf("r = %v, mean values = %v, mean groups = %v, skew = %v", s.ReplicationRate(),
			s.MeanPartitionValues(), s.MeanPartitionGroups(), s.PartitionSkew())
	}
	if empty := (JobStats{}); empty.ReplicationRate() != 0 || empty.MeanPartitionValues() != 0 || empty.PartitionSkew() != 0 {
		t.Error("an empty job's rates must be 0, not NaN")
	}
}

// referenceShuffle is the shuffle the partitioned one replaced: one global
// map, appended to in map-output order, and a sort over every key.
func referenceShuffle(lists []pairList) []keyGroup {
	byKey := make(map[string][]string)
	for _, l := range lists {
		for _, p := range l.pairs {
			byKey[p.key] = append(byKey[p.key], p.value)
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	groups := make([]keyGroup, len(keys))
	for i, k := range keys {
		groups[i] = keyGroup{key: k, values: byKey[k]}
	}
	return groups
}

func sameGroups(got, want []keyGroup) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].key != want[i].key || !reflect.DeepEqual(got[i].values, want[i].values) {
			return fmt.Errorf("group %d = %q %q, want %q %q", i, got[i].key, got[i].values, want[i].key, want[i].values)
		}
		if cap(got[i].values) != len(got[i].values) {
			return fmt.Errorf("group %d (%q) is not capped at its own values", i, got[i].key)
		}
	}
	return nil
}

// FuzzShuffleGrouping: for any pair lists and any partition count, grouping
// per hash partition and merging yields the reference shuffle's keys, in
// its order, each with its values in map-output order.
func FuzzShuffleGrouping(f *testing.F) {
	f.Add([]byte(""), uint8(1), uint8(1))
	f.Add([]byte("abcabcaab"), uint8(2), uint8(3))
	f.Add([]byte("the quick brown fox jumps over the lazy dog\x00\xff"), uint8(16), uint8(5))
	f.Add(bytes.Repeat([]byte{7, 7, 7, 7, 9}, 40), uint8(7), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, parts, nLists uint8) {
		nParts := int(parts)%maxPartitions + 1
		lists := make([]pairList, int(nLists)%6+1)
		for i, b := range data {
			// Few distinct keys, so groups hold several values; the key's
			// length varies so that sorted order is not insertion order.
			key := strings.Repeat(string(rune('a'+b%5)), int(b>>5)%3+1)
			l := &lists[(i*31+int(b))%len(lists)]
			l.pairs = append(l.pairs, kv{key, strconv.Itoa(i)})
		}
		want := referenceShuffle(lists)
		for _, workers := range []int{1, 4} {
			e := &Engine{workers: workers}
			groups, err := e.shuffle(lists, nParts)
			if err == nil {
				err = sameGroups(groups, want)
			}
			if err != nil {
				t.Fatalf("%d partitions, %d workers: %v", nParts, workers, err)
			}
		}
	})
}

// TestAllocBudgetRunJob pins the engine's own containers: with the tasks,
// partitions, runs and keys fixed, a job's allocations do not grow with its
// pair count — every per-pair container is sized once from a count.
func TestAllocBudgetRunJob(t *testing.T) {
	mapper := MapperFunc(func(line string, emit Emit) error {
		emit(line[:1], line)
		return nil
	})
	discard := ReducerFunc(func(string, []string, func(string)) error { return nil })
	allocs := func(nLines int, reducer Reducer) float64 {
		lines := make([]string, nLines)
		for i := range lines {
			lines[i] = string(rune('a'+i%8)) + " payload"
		}
		e := newTestEngine(t)
		e.SetWorkers(1)
		e.DFS().Write("in", lines)
		job := &Job{Name: "budget", Inputs: []Input{{Path: "in", Mapper: mapper}}, Reducer: reducer, Output: "out"}
		return testing.AllocsPerRun(20, func() {
			if _, err := e.runJob(job); err != nil {
				t.Fatal(err)
			}
		})
	}
	for name, reducer := range map[string]Reducer{"reduce": discard, "map-only": nil} {
		few, many := allocs(500, reducer), allocs(8000, reducer)
		if many > few {
			t.Errorf("%s: %v allocations for 8000 pairs, %v for 500: a container grows with the pairs", name, many, few)
		}
		const budget = 30
		if few > budget {
			t.Errorf("%s: %v allocations for a one-task job over 8 keys, budget %d", name, few, budget)
		}
	}
}
