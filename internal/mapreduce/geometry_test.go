package mapreduce

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"ysmart/internal/obs"
)

// The tests of the host's execution geometry (shuffle.go): whatever way the
// worker count cuts a job into morsels and key runs,
// rows, JobStats, attempt logs and trace bytes are those of the sequential
// engine.

// sumReducer is a reducer class in the shape of the CMF common reducer:
// instances keep scratch across keys, count their work privately and return
// it at Done. The class counts the instances it handed out, the keys they
// reduced and the Done calls they received, the most instances one phase
// built, and the broken promises it saw: a key an instance received not
// above the one before, an instance ended twice (the tests' probes, not
// part of the contract). Every Done of a phase comes after the phase's
// last NewReduceTask and before the next phase's first (endPhase), so the
// first Done of a phase closes its instance count.
type sumReducer struct {
	tasks, keys, dones, unsorted, redone atomic.Int64
	phase, mostPerPhase                  atomic.Int64
}

func (r *sumReducer) NewReduceTask() ReduceTask {
	r.tasks.Add(1)
	r.phase.Add(1)
	return &sumTask{r: r, counts: ReduceCounts{Dispatch: []OpDispatch{{Op: "sum"}, {Op: "idle"}}}}
}

type sumTask struct {
	r      *sumReducer
	line   []byte // reused from key to key: emitted lines must not alias it
	last   string // the previous key
	keys   int
	done   bool
	counts ReduceCounts
}

func (t *sumTask) Reduce(key string, values []string, emit func(string)) error {
	if t.keys > 0 && key <= t.last {
		t.r.unsorted.Add(1)
	}
	t.last = key
	t.keys++
	t.r.keys.Add(1)
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

func (t *sumTask) Done() ReduceCounts {
	if t.done {
		t.r.redone.Add(1)
	}
	t.done = true
	t.r.dones.Add(1)
	if n := t.r.phase.Swap(0); n > t.r.mostPerPhase.Load() {
		t.r.mostPerPhase.Store(n)
	}
	return t.counts
}

// sumCombiner is a combiner class: its instances sum a key's values in a
// buffer they keep across key groups, and it counts the instances it
// handed out.
type sumCombiner struct{ tasks atomic.Int64 }

func (c *sumCombiner) NewCombineTask() CombineTask {
	c.tasks.Add(1)
	return &sumCombineTask{}
}

type sumCombineTask struct{ buf []byte } // the returned value must not alias it

func (t *sumCombineTask) Combine(_ string, values []string) (string, error) {
	var sum int64
	for _, v := range values {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return "", err
		}
		sum += n
	}
	t.buf = strconv.AppendInt(t.buf[:0], sum, 10)
	return string(t.buf), nil
}

// geometryInput is n lines "k<key> <i>" over nKeys keys, offset so that two
// inputs interleave their keys.
func geometryInput(n, nKeys, offset int) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("k%03d %d", (i*7+offset)%nKeys, i+offset)
	}
	return lines
}

// countingMapper is geometryMapper as a mapper class whose instances keep
// the line's value in scratch. The class counts the instances it handed
// out and the lines an instance received out of input order: the value
// after a line's key grows with its line number.
type countingMapper struct{ tasks, unsorted atomic.Int64 }

func (m *countingMapper) NewMapTask() MapTask {
	m.tasks.Add(1)
	return &countingTask{m: m, last: -1}
}

type countingTask struct {
	m     *countingMapper
	value []byte // reused from line to line: Emit copies the view emitted
	last  int
}

func (t *countingTask) Map(line string, emit Emit) error {
	key, value, _ := strings.Cut(line, " ")
	n, err := strconv.Atoi(value)
	if err != nil {
		return err
	}
	if n <= t.last {
		t.m.unsorted.Add(1)
	}
	t.last = n
	t.value = append(t.value[:0], value...)
	emit(key, unsafe.String(unsafe.SliceData(t.value), len(t.value)))
	return nil
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
	return runGeometryOn(t, cluster, job, workers, geometryInput(5000, 400, 0), geometryInput(3000, 400, 3))
}

// runGeometryOn runs job over inputs a and b.
func runGeometryOn(t *testing.T, cluster *Cluster, job *Job, workers int, a, b []string) geometryRun {
	t.Helper()
	dfs := NewDFS()
	dfs.Write("a", a)
	dfs.Write("b", b)
	e, err := NewEngine(dfs, cluster)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(workers)
	col := obs.NewCollector()
	e.Instrument(col, nil)
	stats, err := e.runJob(job)
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
// span several morsels and key runs, in every variant
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
			inner := geometryMapper().NewMapTask()
			return geometryJob(MapperFunc(func(line string, emit Emit) error {
				if strings.HasSuffix(line, "7") {
					return ErrFiltered
				}
				return inner.Map(line, emit)
			}))
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
		{"uneven reducer", geometryCluster, func() *Job {
			// Zero to three lines a key: runs that leave their window short
			// and runs that outgrow it.
			j := geometryJob(geometryMapper())
			j.Reducer = ReducerFunc(func(key string, values []string, emit func(string)) error {
				for i := 0; i < int(key[len(key)-1])%4; i++ {
					emit(fmt.Sprintf("%s\t%d\t%s", key, i, values[i%len(values)]))
				}
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
	// 8000 pairs over 400 keys — several key runs at 2 and at 8 workers,
	// whichever reducer reduces them (how many instances a factory hands
	// out is TestGeometryReduceInstances' and
	// TestGeometryInstancesPerWorker's).
	a, b := geometryInput(5000, 400, 0), geometryInput(3000, 400, 3)
	morsels, first := cutMorsels([]mapTask{{chunk: a[:2500]}, {chunk: a[2500:]}, {chunk: b}})
	if len(morsels) != 9 || !reflect.DeepEqual(first, []int{0, 3, 6, 9}) {
		t.Fatalf("cutMorsels: %d morsels, first = %v", len(morsels), first)
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
// Done sums to the sequential run's counts at any worker count. One worker
// builds one instance; more build one per worker that took a key run, so
// between one (a worker may drain every run before another starts) and the
// worker count (the job's 8 and 15 runs at 2 and 8 workers are more than
// that: see TestGeometryInvariantAcrossWorkers).
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
		tasks := job.Reducer.(*sumReducer).tasks.Load()
		if workers == 1 && tasks != 1 || tasks < 1 || tasks > int64(workers) {
			t.Errorf("workers=%d: %d reducer instances, want 1 at one worker and 1 to %d otherwise", workers, tasks, workers)
		}
	}
}

// TestGeometryInstancesPerWorker pins the lifetime rule. A job cut into many
// morsels over two inputs, at least 4 combine tasks and at least 8 key runs
// builds at most one instance per worker per phase — min(workers, items),
// and per input for mappers — and Done ends every reducer instance exactly
// once, after it saw its keys in ascending order, as a map instance saw its
// lines; rows, JobStats and trace bytes are the sequential run's. Under a
// fault plan all of this holds unchanged: a relaunched attempt builds no
// instance and runs no user code.
func TestGeometryInstancesPerWorker(t *testing.T) {
	// 18000 lines over 1000 keys: six map tasks, whose combiners fold each
	// key's three values into one and leave 6000 pairs to reduce.
	a, b := geometryInput(12000, 1000, 0), geometryInput(6000, 1000, 3)
	// The morsels of an input's lines, cut as the engine cuts them.
	morselsOf := func(lines []string, workers int) int {
		c := geometryCluster()
		chunks := appendChunks(nil, 0, lines, int(math.Ceil(float64(linesBytes(lines))*c.DataScale/float64(c.Cost.SplitSize))))
		if workers == 1 {
			return len(chunks)
		}
		m, _ := cutMorsels(chunks)
		return len(m)
	}
	faulty := func() *Cluster {
		c := geometryCluster()
		c.Faults = &FaultPlan{Seed: 4, TaskFailureProb: 0.5, StragglerProb: 0.2, StragglerFactor: 5,
			NodeFailures: []NodeFailure{{Node: 2, At: 14}}}
		c.Speculation = Speculation{Enabled: true}
		return c
	}
	for _, faults := range []bool{false, true} {
		cluster := geometryCluster
		if faults {
			cluster = faulty
		}
		var base geometryRun
		for _, workers := range []int{1, 2, 8} {
			name := fmt.Sprintf("faults=%v workers=%d", faults, workers)
			mappers := []*countingMapper{{}, {}}
			job := geometryJob(mappers[0])
			job.Inputs[1].Mapper = mappers[1]
			job.Combiner = &sumCombiner{}
			got := runGeometryOn(t, cluster(), job, workers, a, b)
			if got.err != nil {
				t.Fatal(got.err)
			}
			s := got.stats
			if s.NumMapTasks < 4 || s.ReduceInputRecords/runValues < 8 || s.ReduceGroups < 8 {
				t.Fatalf("%d map tasks, %d pairs over %d keys: the job is not the shape this test is about",
					s.NumMapTasks, s.ReduceInputRecords, s.ReduceGroups)
			}
			// At most min(workers, items) instances a phase; no phase with
			// no items builds one.
			bound := func(items int) int64 { return int64(min(workers, items)) }
			r := job.Reducer.(*sumReducer)
			runs := 1 // cutRuns: the pairs and keys above make at least 8 runs at 2 workers and up
			if workers > 1 {
				runs = min(workers*runsPerWorker, int(s.ReduceInputRecords)/runValues, int(s.ReduceGroups))
			}
			if n, most := r.mostPerPhase.Load(), bound(runs); n < 1 || n > most {
				t.Errorf("%s: a phase built %d reducer instances for %d key runs, want 1 to %d", name, n, runs, most)
			}
			if n, most := job.Combiner.(*sumCombiner).tasks.Load(), bound(s.NumMapTasks); n < 1 || n > most {
				t.Errorf("%s: %d combiner instances for %d combine tasks, want 1 to %d", name, n, s.NumMapTasks, most)
			}
			for in, lines := range [][]string{a, b} {
				morsels := morselsOf(lines, workers)
				if n, most := mappers[in].tasks.Load(), bound(morsels); n < 1 || n > most {
					t.Errorf("%s: %d mapper instances for the %d morsels of input %d, want 1 to %d", name, n, morsels, in, most)
				}
				if n := mappers[in].unsorted.Load(); n != 0 {
					t.Errorf("%s: %d lines of input %d reached an instance out of order", name, n, in)
				}
			}
			if r.dones.Load() != r.tasks.Load() || r.redone.Load() != 0 {
				t.Errorf("%s: %d Done calls for %d reducer instances, %d of them ended twice",
					name, r.dones.Load(), r.tasks.Load(), r.redone.Load())
			}
			if n := r.unsorted.Load(); n != 0 {
				t.Errorf("%s: %d keys reached an instance out of ascending order", name, n)
			}
			if workers == 1 {
				base = got
				continue
			}
			if !reflect.DeepEqual(got.rows, base.rows) || !reflect.DeepEqual(got.stats, base.stats) || !bytes.Equal(got.trace, base.trace) {
				t.Errorf("%s: rows, JobStats or trace differ from the sequential run", name)
			}
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
		stats, err := e.runJob(job)
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

// kv is one plain map output pair, what the tests' references are written
// over.
type kv struct{ key, value string }

// pairsOf reads a pair list back as plain pairs.
func pairsOf(l *pairList) []kv {
	var pairs []kv
	for i := range l.segs {
		s, p, end := l.segment(i)
		for off := int32(0); p < end; p++ {
			k, v := l.ends[2*p], l.ends[2*p+1]
			pairs = append(pairs, kv{s[off:k], s[k:v]})
			off = v
		}
	}
	return pairs
}

// listOf writes pairs to out as one list, the way a morsel's map output is
// written, and returns it.
func listOf(out *Output, pairs []kv) pairList {
	out.begin(len(pairs))
	for _, p := range pairs {
		out.Emit(p.key, p.value)
	}
	return out.take()
}

// referenceShuffle is the shuffle's specification: one global map,
// appended to in map-output order, and a sort over every key.
func referenceShuffle(lists [][]kv) []keyGroup {
	byKey := make(map[string][]string)
	for _, l := range lists {
		for _, p := range l {
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

// FuzzShuffleGrouping: for any pair lists, emitted to two workers' Outputs
// as strings of their own or as views of a buffer the next pair
// overwrites, each list reads back as the pairs written to it; the shuffle
// yields the reference shuffle's keys, in its order, each with its values
// in map-output order and capped at them; and combineTask yields one pair
// per key, in the same order, folded from that key's values in list order.
// Keys and values may be empty, a value may be longer than a chunk's cap,
// and since a fresh Output's chunks start at the first pair's size, lists
// span several chunks. Every input runs as three jobs back to back on one
// scratch and one pair of Outputs, as an engine carries them: the lists,
// the lists reversed, then the lists again. Each job ends as one whose
// output lines view no chunk does, freeing its chunks, so the next job's
// lists read back from recycled chunks, and a container or chunk the
// scratch carries dirty from a job — a chunk freed while its Output still
// writes to it, or freed holding bytes — fails the fuzz.
func FuzzShuffleGrouping(f *testing.F) {
	f.Add([]byte(""), uint8(1))
	f.Add([]byte("abcabcaab"), uint8(3))
	f.Add([]byte("the quick brown fox jumps over the lazy dog\x00\xff"), uint8(5))
	f.Add(bytes.Repeat([]byte{7, 7, 7, 7, 9}, 40), uint8(2))
	f.Add(bytes.Repeat([]byte{0xff, 0, 35, 70}, 30), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, nLists uint8) {
		plain := make([][]kv, int(nLists)%6+1)
		for i, b := range data {
			// Few distinct keys, so groups hold several values; the key's
			// length varies so that sorted order is not insertion order.
			key := strings.Repeat(string(rune('a'+b%5)), int(b>>5)%4)
			value := strconv.Itoa(i)
			switch {
			case b%7 == 0:
				value = ""
			case b == 0xff:
				value = strings.Repeat(value, pairChunkBytes/len(value)+1)
			}
			l := (i*31 + int(b)) % len(plain)
			plain[l] = append(plain[l], kv{key, value})
		}
		reversed := slices.Clone(plain)
		slices.Reverse(reversed)
		sc, outs := &scratch{workers: make([]workerScratch, 2)}, make([]Output, 2)
		for job, input := range [][][]kv{plain, reversed, plain} {
			sc.lend(outs, true)
			if err := shuffleJob(sc, outs, input); err != nil {
				t.Fatalf("job %d: %v", job, err)
			}
			sc.endJob(outs, true)
			for w := range outs {
				if outs[w].buf != nil {
					t.Fatalf("job %d: worker %d's Output holds a chunk after a job that freed its chunks", job, w)
				}
				for _, c := range sc.workers[w].chunks {
					if len(c) != 0 {
						t.Fatalf("job %d: worker %d's free list holds a chunk of %d bytes", job, w, len(c))
					}
				}
			}
		}
	})
}

// shuffleJob emits input's lists to outs, alternating workers, and checks
// what they read back as, the shuffle on sc and two combine tasks on
// worker 0's grouping against the reference shuffle.
func shuffleJob(sc *scratch, outs []Output, input [][]kv) error {
	var buf []byte
	lists := make([]pairList, len(input))
	for l, pairs := range input {
		out := &outs[l%2]
		out.begin(len(pairs) / 2) // an index that regrows
		for i, p := range pairs {
			if (i+l)%2 == 0 {
				out.Emit(p.key, p.value)
				continue
			}
			buf = append(append(buf[:0], p.key...), p.value...)
			s := unsafe.String(unsafe.SliceData(buf), len(buf))
			out.Emit(s[:len(p.key)], s[len(p.key):])
		}
		lists[l] = out.take()
		if got := pairsOf(&lists[l]); !reflect.DeepEqual(got, input[l]) {
			return fmt.Errorf("list %d reads back as %q, written as %q", l, got, input[l])
		}
	}
	want := referenceShuffle(input)
	if err := sameGroups(sc.shuffle.groupPairs(lists), want); err != nil {
		return err
	}
	concat := CombinerFunc(func(_ string, values []string) (string, error) {
		return strings.Join(values, ","), nil
	})
	// Two tasks on one worker, as a job's combine phase runs them: the
	// lists in reverse order, then in order.
	revInput, revLists := slices.Clone(input), slices.Clone(lists)
	slices.Reverse(revInput)
	slices.Reverse(revLists)
	for task, c := range []struct {
		input [][]kv
		lists []pairList
	}{{revInput, revLists}, {input, lists}} {
		out, err := combineTask(&sc.workers[0].combine, c.lists, concat, &outs[0])
		if err != nil {
			return err
		}
		var wantPairs []kv
		var wantBytes int64
		for _, g := range referenceShuffle(c.input) {
			wantPairs = append(wantPairs, kv{g.key, strings.Join(g.values, ",")})
			wantBytes += int64(len(g.key) + len(wantPairs[len(wantPairs)-1].value) + 2)
		}
		if got := pairsOf(&out); !reflect.DeepEqual(got, wantPairs) || out.bytes != wantBytes {
			return fmt.Errorf("combine task %d = %q (%d bytes), want %q (%d bytes)", task, got, out.bytes, wantPairs, wantBytes)
		}
	}
	return nil
}

// TestAllocBudgetRunJob pins the engine's own containers: with the tasks,
// runs and keys fixed, a job's allocations do not grow with its pair count
// — every per-pair container is carried in the engine's scratch, held as
// a chain holds it — but for the chunks the worker's Output copies the
// pairs into, one per pairChunkBytes of pair bytes, and those only when
// the last job's output lines viewed its chunks (a map-only job's do):
// otherwise the job freed its chunks to the scratch and the next one
// writes them again. On a warm scratch the map phase's bytes are the pair
// bytes and a fixed allowance, a recycling reduce job's a budget that the
// pair bytes alone exceed, and the shuffle's the allowance alone: the
// index, the groups, their map and the values slab are all carried. At 2 workers,
// with the keys fixed, more pairs cost the shuffle no more allocations (it
// groups on the driver whatever the worker count) and more key runs cost
// the reduce phase none (it allocates per worker, never per run).
func TestAllocBudgetRunJob(t *testing.T) {
	mapper := MapperFunc(func(line string, emit Emit) error {
		emit(line[:1], line)
		return nil
	})
	discard := ReducerFunc(func(string, []string, func(string)) error { return nil })
	linesOf := func(n int) []string {
		lines := make([]string, n)
		for i := range lines {
			lines[i] = string(rune('a'+i%8)) + " payload"
		}
		return lines
	}
	allocs := func(nLines int, reducer Reducer) float64 {
		e := newTestEngine(t)
		e.SetWorkers(1)
		e.DFS().Write("in", linesOf(nLines))
		job := &Job{Name: "budget", Inputs: []Input{{Path: "in", Mapper: mapper}}, Reducer: reducer, Output: "out"}
		defer runtime.KeepAlive(e.scratch()) // as RunChainContext holds it
		return testing.AllocsPerRun(20, func() {
			if _, err := e.runJob(job); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Each line's pair is 10 B: its key "a" and its value "a payload".
	const pairBytes = 10
	for name, reducer := range map[string]Reducer{"reduce": discard, "map-only": nil} {
		few, many := allocs(500, reducer), allocs(8000, reducer)
		// A map-only job's output lines view its chunks, so it starts new
		// ones; the reduce job's view none, so it frees its chunks for the
		// next run and starts none.
		chunks := 0
		if reducer == nil {
			chunks = (8000-500)*pairBytes/pairChunkBytes + 1
		}
		if many > few+float64(chunks) {
			t.Errorf("%s: %v allocations for 8000 pairs, %v for 500: more than the %d chunks the further pairs fill, a container grows with the pairs", name, many, few, chunks)
		}
		const budget = 12
		if few > budget {
			t.Errorf("%s: %v allocations for a one-task job over 8 keys, budget %d", name, few, budget)
		}
	}
	// The map phase's bytes, on an Output and a scratch carried from run to
	// run as a worker's are from job to job, the scratch warmed by a first
	// run: the index array is the scratch's, the pairs fill their chunks,
	// and the chunks' unused ends and the Emit method value fit the
	// allowance.
	lines := linesOf(8000)
	const mapRuns, mapAllowance = 20, 1 << 10
	sc, outs := &scratch{workers: make([]workerScratch, 1)}, make([]Output, 1)
	mapJob := func() {
		sc.lend(outs, true)
		if _, err := runMapper(mapper, lines, &outs[0]); err != nil {
			t.Fatal(err)
		}
		sc.endJob(outs, false)
	}
	mapJob()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range mapRuns {
		mapJob()
	}
	runtime.ReadMemStats(&after)
	if bytes := (after.TotalAlloc - before.TotalAlloc) / mapRuns; bytes > 8000*pairBytes+mapAllowance {
		t.Errorf("mapping 8000 lines allocates %d bytes, budget %d: more than the pair bytes", bytes, 8000*pairBytes+mapAllowance)
	}
	// A reduce job whose output lines view no chunk frees its chunks for
	// the next, so on a warm engine, its scratch held as a chain holds it,
	// 8 000 pairs (80 000 B) cost no chunk: what a run allocates — its
	// stats, its slots, the DFS file — fits the budget.
	const recycledRuns, recycledBudget = 20, 4 << 10
	recycled := newTestEngine(t)
	recycled.SetWorkers(1)
	recycled.DFS().Write("in", lines)
	reduceJob := &Job{Name: "recycled", Inputs: []Input{{Path: "in", Mapper: mapper}}, Reducer: discard, Output: "out"}
	reduceRun := func() {
		if _, err := recycled.runJob(reduceJob); err != nil {
			t.Fatal(err)
		}
	}
	held := recycled.scratch()
	reduceRun()
	runtime.ReadMemStats(&before)
	for range recycledRuns {
		reduceRun()
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(held)
	if bytes := (after.TotalAlloc - before.TotalAlloc) / recycledRuns; bytes > recycledBudget {
		t.Errorf("a warm reduce job over 8000 pairs allocates %d bytes, budget %d: its pair chunks were not reused", bytes, recycledBudget)
	}

	e := &Engine{workers: 2}
	over8Keys := func(nPairs int) []pairList {
		pairs := make([]kv, nPairs)
		for i := range pairs {
			pairs[i] = kv{string(rune('a' + i%8)), "payload"}
		}
		return []pairList{listOf(&Output{}, pairs)}
	}
	shuffle := func(g *grouping, lists []pairList) {
		g.groupPairs(lists)
		g.release()
	}
	shuffleAllocs := func(nPairs int) float64 {
		var g grouping
		lists := over8Keys(nPairs)
		return testing.AllocsPerRun(20, func() { shuffle(&g, lists) })
	}
	if few, many := shuffleAllocs(500), shuffleAllocs(8000); many > few {
		t.Errorf("workers 2: %v allocations to shuffle 8000 pairs over 8 keys, %v for 500", many, few)
	}
	// On a warm grouping the values slab, the 8 groups and their map are
	// carried: what is left fits the allowance.
	var g grouping
	lists := over8Keys(8000)
	const runs, allowance = 20, 1 << 10
	shuffle(&g, lists)
	runtime.ReadMemStats(&before)
	for range runs {
		shuffle(&g, lists)
	}
	runtime.ReadMemStats(&after)
	if bytes := (after.TotalAlloc - before.TotalAlloc) / runs; bytes > allowance {
		t.Errorf("shuffling 8000 pairs over 8 keys on a warm grouping allocates %d bytes, budget %d", bytes, allowance)
	}

	job := &Job{Reducer: discard}
	keyGroups := func(keys, perKey int) []keyGroup {
		groups := make([]keyGroup, keys)
		for k := range groups {
			groups[k] = keyGroup{key: fmt.Sprintf("k%04d", k), values: make([]string, perKey)}
		}
		return groups
	}
	reduceAllocs := func(perKey int) (runs int, allocs float64) {
		groups := keyGroups(8, perKey)
		sc := &scratch{workers: make([]workerScratch, e.workers)}
		return len(e.cutRuns(groups, 8*perKey)), testing.AllocsPerRun(20, func() {
			if _, _, err := e.reduce(job, groups, 8*perKey, make([]jobWorker, e.workers), sc); err != nil {
				t.Fatal(err)
			}
		})
	}
	fewRuns, few := reduceAllocs(128)
	manyRuns, many := reduceAllocs(1000)
	if fewRuns != 2 || manyRuns != 8 {
		t.Fatalf("8 keys reduce in %d and %d runs, want 2 and 8", fewRuns, manyRuns)
	}
	if many > few {
		t.Errorf("workers 2: %v allocations for 8 key runs, %v for 2: the reduce phase allocates per run", many, few)
	}
	// The reduce phase's bytes on a warm scratch, for a reducer that emits
	// three lines a key and allocates none: the output slice, 16 B a line,
	// and what fits the allowance (the runs, the pool's goroutines). The lines
	// a run emits past its keys' count cost no window regrown by doubling
	// and no second copy. Which runs a worker takes is scheduling, so the
	// scratch is warmed as every worker's is once it has reduced every key
	// of the job, and 1 024 keys make the output slice a whole number of
	// pages, the allocator's rounding for an object that large.
	const reduceRuns, reduceAllowance, nKeys = 100, 1 << 10, 1024
	three := ReducerFunc(func(key string, _ []string, emit func(string)) error {
		emit(key)
		emit(key)
		emit(key)
		return nil
	})
	groups := keyGroups(nKeys, 4)
	sc = &scratch{workers: make([]workerScratch, e.workers)}
	for w := range sc.workers {
		sc.workers[w].lines = make([]string, 0, 3*nKeys)
	}
	threeJob, slots := &Job{Reducer: three}, make([]jobWorker, e.workers)
	reducePhase := func() {
		lines, _, err := e.reduce(threeJob, groups, 4*nKeys, slots, sc)
		if err != nil || len(lines) != 3*nKeys || lines[3*nKeys-1] != groups[nKeys-1].key {
			t.Fatalf("reduce: %d lines, error %v", len(lines), err)
		}
	}
	reducePhase()
	runtime.ReadMemStats(&before)
	for range reduceRuns {
		reducePhase()
	}
	runtime.ReadMemStats(&after)
	if bytes, budget := (after.TotalAlloc-before.TotalAlloc)/reduceRuns, uint64(3*nKeys*16+reduceAllowance); bytes > budget {
		t.Errorf("reducing %d keys to 3 lines each allocates %d bytes, budget %d: more than the output slice", nKeys, bytes, budget)
	}
}
