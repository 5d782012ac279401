package mapreduce

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ysmart/internal/obs"
)

// testFaultCluster is a 4-node cluster with a tiny split size so even the
// small test inputs produce many real map tasks (and several waves).
func testFaultCluster() *Cluster {
	c := SmallCluster()
	c.Name = "fault-test"
	c.Nodes = 4
	c.MapSlotsPerNode = 2
	c.ReduceSlotsPerNode = 2
	c.Cost.SplitSize = 64
	return c
}

// faultTestLines is a deterministic many-line input (dozens of map tasks
// at the test cluster's 64-byte split size).
func faultTestLines() []string {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	var lines []string
	for i := 0; i < 120; i++ {
		lines = append(lines, fmt.Sprintf("%s %s %s",
			words[i%len(words)], words[(i*7+3)%len(words)], words[(i*13+1)%len(words)]))
	}
	return lines
}

// runFaultChain executes the three-job wordcount chain on a fresh DFS
// under the given cluster, returning stats and the final output lines.
func runFaultChain(t *testing.T, cluster *Cluster, tracer *obs.Collector) (*ChainStats, []string) {
	t.Helper()
	dfs := NewDFS()
	dfs.Write("in", faultTestLines())
	e, err := NewEngine(dfs, cluster)
	if err != nil {
		t.Fatal(err)
	}
	e.Instrument(tracer, nil)
	stats, err := e.RunChain(chainJobs())
	if err != nil {
		t.Fatal(err)
	}
	out, err := dfs.Read("p")
	if err != nil {
		t.Fatal(err)
	}
	return stats, out
}

func TestZeroFaultPlanIsByteIdentical(t *testing.T) {
	base, baseOut := runFaultChain(t, testFaultCluster(), nil)

	zero := testFaultCluster()
	zero.Faults = &FaultPlan{Seed: 42} // no events
	zero.Speculation = Speculation{Enabled: true}
	got, gotOut := runFaultChain(t, zero, nil)

	if !reflect.DeepEqual(base.Jobs, got.Jobs) {
		t.Errorf("zero-event FaultPlan changed JobStats:\nbase %+v\ngot  %+v", base.Jobs, got.Jobs)
	}
	if !reflect.DeepEqual(baseOut, gotOut) {
		t.Errorf("zero-event FaultPlan changed output")
	}
}

func TestTaskFailuresPreserveOutput(t *testing.T) {
	_, want := runFaultChain(t, testFaultCluster(), nil)

	faulty := testFaultCluster()
	faulty.Faults = &FaultPlan{Seed: 1, TaskFailureProb: 0.3}
	stats, got := runFaultChain(t, faulty, nil)

	if !reflect.DeepEqual(want, got) {
		t.Errorf("output under task failures differs from fault-free run")
	}
	if stats.TotalRetries() == 0 {
		t.Errorf("30%% failure probability produced no retries: %+v", stats.Jobs[0])
	}
	var fails int
	for _, js := range stats.Jobs {
		if js.TotalTime() <= 0 {
			t.Errorf("job %s: non-positive total time", js.Name)
		}
		for _, a := range js.Attempts {
			if a.Outcome == OutcomeFailed {
				fails++
			}
			if a.Dur < 0 {
				t.Errorf("job %s: negative attempt duration %+v", js.Name, a)
			}
		}
	}
	if fails != stats.TotalRetries() {
		// Every failed attempt relaunches exactly once (no node deaths here).
		t.Errorf("failed attempts %d != retries %d", fails, stats.TotalRetries())
	}
}

func TestNodeFailureRecomputesAndPreservesOutput(t *testing.T) {
	_, want := runFaultChain(t, testFaultCluster(), nil)

	faulty := testFaultCluster()
	// Startup is 12s and map waves run ~1.5s each, so 13.6s lands inside the
	// first job's map phase: node 0 dies with completed wave-1 output and
	// in-flight wave-2 attempts.
	faulty.Faults = &FaultPlan{Seed: 5, NodeFailures: []NodeFailure{{Node: 0, At: 13.6}}}
	collector := obs.NewCollector()
	stats, got := runFaultChain(t, faulty, collector)

	if !reflect.DeepEqual(want, got) {
		t.Errorf("output under a node failure differs from fault-free run")
	}
	js := stats.Jobs[0]
	if js.NodeFailures != 1 {
		t.Errorf("job 1 node failures = %d, want 1", js.NodeFailures)
	}
	if js.RecomputedMapTasks == 0 && js.MapTaskRetries == 0 {
		t.Errorf("node death caused no recovery: %+v", js)
	}
	var deadNodeLate, faultInstants int
	for _, a := range js.Attempts {
		if a.Node == 0 && a.Start >= 13.6 {
			deadNodeLate++
		}
	}
	if deadNodeLate > 0 {
		t.Errorf("%d attempts scheduled on node 0 after its death", deadNodeLate)
	}
	for _, ev := range collector.Events() {
		if ev.Cat == "fault" && ev.Name == "node-failure" {
			faultInstants++
		}
	}
	if faultInstants == 0 {
		t.Errorf("trace has no node-failure instant")
	}
}

func TestSpeculationRacesStragglers(t *testing.T) {
	_, want := runFaultChain(t, testFaultCluster(), nil)

	faulty := testFaultCluster()
	faulty.Faults = &FaultPlan{Seed: 3, StragglerProb: 0.4, StragglerFactor: 8}
	faulty.Speculation = Speculation{Enabled: true}
	stats, got := runFaultChain(t, faulty, nil)

	if !reflect.DeepEqual(want, got) {
		t.Errorf("output under speculation differs from fault-free run")
	}
	var spec, wins, killed int
	for _, js := range stats.Jobs {
		spec += js.SpeculativeTasks
		wins += js.SpeculativeWins
		for _, a := range js.Attempts {
			if a.Outcome == OutcomeKilled {
				killed++
			}
		}
	}
	if spec == 0 {
		t.Fatalf("40%% stragglers at 8x with speculation on launched no backups")
	}
	if wins > spec {
		t.Errorf("speculative wins %d > launches %d", wins, spec)
	}
	// Every race has exactly one loser: a killed original per win, a killed
	// backup per loss (unless the backup failed or was node-lost first).
	if wins > 0 && killed == 0 {
		t.Errorf("%d speculative wins but no killed attempts", wins)
	}

	// With the same faults but speculation off, stragglers run to completion.
	off := testFaultCluster()
	off.Faults = &FaultPlan{Seed: 3, StragglerProb: 0.4, StragglerFactor: 8}
	offStats, offOut := runFaultChain(t, off, nil)
	if !reflect.DeepEqual(want, offOut) {
		t.Errorf("output with speculation off differs from fault-free run")
	}
	if offStats.TotalSpeculative() != 0 {
		t.Errorf("speculation disabled but %d backups launched", offStats.TotalSpeculative())
	}
}

func TestFaultReplayIsDeterministic(t *testing.T) {
	mk := func() *Cluster {
		c := testFaultCluster()
		c.Faults = &FaultPlan{
			Seed:            9,
			TaskFailureProb: 0.2,
			StragglerProb:   0.2,
			NodeFailures:    []NodeFailure{{Node: 2, At: 14}},
		}
		c.Speculation = Speculation{Enabled: true}
		return c
	}
	c1 := obs.NewCollector()
	s1, o1 := runFaultChain(t, mk(), c1)
	c2 := obs.NewCollector()
	s2, o2 := runFaultChain(t, mk(), c2)

	if !reflect.DeepEqual(s1.Jobs, s2.Jobs) {
		t.Errorf("same seed produced different JobStats")
	}
	if !reflect.DeepEqual(o1, o2) {
		t.Errorf("same seed produced different output")
	}
	t1, t2 := obs.ChromeTrace(c1.Events()), obs.ChromeTrace(c2.Events())
	if string(t1) != string(t2) {
		t.Errorf("same seed produced different trace bytes")
	}
}

// TestSeedSweepReplayAcrossWorkers replays five distinct fault scenarios
// at one and four workers each: every seed must yield identical per-job
// stats (including the full per-attempt log), output and trace bytes at
// both worker counts. This is the fault-path half of the parallelism
// proof — the schedules of retries, recomputation and speculation, and
// what they are charged, do not depend on the host's worker count.
func TestSeedSweepReplayAcrossWorkers(t *testing.T) {
	run := func(seed int64, workers int) (*ChainStats, []string, []byte) {
		c := testFaultCluster()
		c.Faults = &FaultPlan{Seed: seed, TaskFailureProb: 0.25, StragglerProb: 0.15, StragglerFactor: 5}
		c.Speculation = Speculation{Enabled: true}
		dfs := NewDFS()
		dfs.Write("in", faultTestLines())
		e, err := NewEngine(dfs, c)
		if err != nil {
			t.Fatal(err)
		}
		e.SetWorkers(workers)
		col := obs.NewCollector()
		e.Instrument(col, nil)
		stats, err := e.RunChain(chainJobs())
		if err != nil {
			t.Fatal(err)
		}
		out, err := dfs.Read("p")
		if err != nil {
			t.Fatal(err)
		}
		return stats, out, obs.ChromeTrace(col.Events())
	}

	var retries, backups int
	for seed := int64(1); seed <= 5; seed++ {
		base, baseOut, baseTrace := run(seed, 1)
		retries += base.TotalRetries()
		backups += base.TotalSpeculative()
		got, gotOut, gotTrace := run(seed, 4)
		for i := range base.Jobs {
			if !reflect.DeepEqual(base.Jobs[i].Attempts, got.Jobs[i].Attempts) {
				t.Errorf("seed %d: job %d attempt log differs between 1 and 4 workers", seed, i)
			}
		}
		if !reflect.DeepEqual(base.Jobs, got.Jobs) {
			t.Errorf("seed %d: JobStats differ between 1 and 4 workers", seed)
		}
		if !reflect.DeepEqual(baseOut, gotOut) {
			t.Errorf("seed %d: output differs between 1 and 4 workers", seed)
		}
		if !reflect.DeepEqual(baseTrace, gotTrace) {
			t.Errorf("seed %d: trace bytes differ between 1 and 4 workers", seed)
		}
	}
	// The sweep must actually exercise the recovery paths it claims to prove.
	if retries == 0 {
		t.Errorf("no seed in the sweep produced a retry")
	}
	if backups == 0 {
		t.Errorf("no seed in the sweep produced a speculative backup")
	}
}

func TestTracedIdenticalToUntracedUnderFaults(t *testing.T) {
	mk := func() *Cluster {
		c := testFaultCluster()
		c.Faults = &FaultPlan{Seed: 11, TaskFailureProb: 0.25, NodeFailures: []NodeFailure{{Node: 1, At: 15}}}
		return c
	}
	plain, plainOut := runFaultChain(t, mk(), nil)
	collector := obs.NewCollector()
	traced, tracedOut := runFaultChain(t, mk(), collector)

	if !reflect.DeepEqual(plain.Jobs, traced.Jobs) {
		t.Errorf("tracing changed fault-injected JobStats")
	}
	if !reflect.DeepEqual(plainOut, tracedOut) {
		t.Errorf("tracing changed fault-injected output")
	}
	var retrySpans int
	for _, ev := range collector.Events() {
		if ev.Cat == "retry" {
			retrySpans++
		}
	}
	if plain.TotalRetries() > 0 && retrySpans == 0 {
		t.Errorf("%d retries but no retry spans in trace", plain.TotalRetries())
	}
}

func TestFaultValidation(t *testing.T) {
	cases := []FaultPlan{
		{TaskFailureProb: 1},
		{TaskFailureProb: -0.1},
		{StragglerProb: 1.5},
		{StragglerFactor: 0.5},
		{MaxAttempts: -1},
		{NodeFailures: []NodeFailure{{Node: 99, At: 1}}},
		{NodeFailures: []NodeFailure{{Node: 0, At: -3}}},
		{NodeFailures: []NodeFailure{{Node: 1, At: 14}, {Node: 1, At: 15}}},
	}
	for i, plan := range cases {
		c := testFaultCluster()
		p := plan
		c.Faults = &p
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: plan %+v validated, want error", i, plan)
		}
	}

	ok := testFaultCluster()
	ok.Faults = &FaultPlan{Seed: 7, TaskFailureProb: 0.5, StragglerProb: 0.3, StragglerFactor: 2,
		MaxAttempts: 3, NodeFailures: []NodeFailure{{Node: 3, At: 100}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

func TestParseFaultSpec(t *testing.T) {
	p, err := ParseFaultSpec("task=0.1,straggler=0.05x6,node=2@500,node=1@30,attempts=3")
	if err != nil {
		t.Fatal(err)
	}
	want := &FaultPlan{
		TaskFailureProb: 0.1,
		StragglerProb:   0.05,
		StragglerFactor: 6,
		MaxAttempts:     3,
		NodeFailures:    []NodeFailure{{Node: 1, At: 30}, {Node: 2, At: 500}},
	}
	if !reflect.DeepEqual(p, want) {
		t.Errorf("ParseFaultSpec = %+v, want %+v", p, want)
	}

	if p, err := ParseFaultSpec("straggler=0.2"); err != nil || p.StragglerProb != 0.2 || p.StragglerFactor != 0 {
		t.Errorf("factor-less straggler = %+v, %v", p, err)
	}
	if p, err := ParseFaultSpec(""); err != nil || !p.IsZero() {
		t.Errorf("empty spec = %+v, %v; want zero plan", p, err)
	}

	for _, bad := range []string{"bogus=1", "task", "task=x", "node=1", "node=a@3", "node=1@x", "straggler=0.1xq", "attempts=two"} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("spec %q parsed, want error", bad)
		}
	}
}

func TestFaultPlanRollProperties(t *testing.T) {
	p := &FaultPlan{Seed: 1}
	a := p.roll("fail", "j1", "map", 3, 0)
	if b := p.roll("fail", "j1", "map", 3, 0); a != b {
		t.Errorf("roll not deterministic: %v vs %v", a, b)
	}
	if a < 0 || a >= 1 {
		t.Errorf("roll out of [0,1): %v", a)
	}
	if b := p.roll("fail", "j1", "map", 3, 1); a == b {
		t.Errorf("different attempt produced identical roll")
	}
	q := &FaultPlan{Seed: 2}
	if b := q.roll("fail", "j1", "map", 3, 0); a == b {
		t.Errorf("different seed produced identical roll")
	}
}

func TestMapOnlyJobUnderFaults(t *testing.T) {
	mk := func(c *Cluster) []string {
		dfs := NewDFS()
		dfs.Write("in", faultTestLines())
		e, err := NewEngine(dfs, c)
		if err != nil {
			t.Fatal(err)
		}
		job := &Job{
			Name: "filter",
			Inputs: []Input{{
				Path: "in",
				Mapper: MapperFunc(func(line string, emit Emit) error {
					if strings.Contains(line, "alpha") {
						emit("", line)
					}
					return nil
				}),
			}},
			Output: "out",
		}
		if _, err := e.runJob(job); err != nil {
			t.Fatal(err)
		}
		out, err := dfs.Read("out")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := mk(testFaultCluster())
	faulty := testFaultCluster()
	faulty.Faults = &FaultPlan{Seed: 2, TaskFailureProb: 0.3, NodeFailures: []NodeFailure{{Node: 0, At: 13}}}
	got := mk(faulty)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("map-only output under faults differs from fault-free run")
	}
}

// TestGlobalReduceOverEmptyShuffle: a GlobalReduce job whose mapper emits
// nothing still reduces the empty key's group once, with no values — a
// plain job reduces nothing — and under faults that group is still reduced
// once, to the same output.
func TestGlobalReduceOverEmptyShuffle(t *testing.T) {
	var calls atomic.Int64
	run := func(c *Cluster, global bool) ([]string, *JobStats) {
		dfs := NewDFS()
		dfs.Write("in", faultTestLines())
		e, err := NewEngine(dfs, c)
		if err != nil {
			t.Fatal(err)
		}
		job := &Job{
			Name:   "global",
			Inputs: []Input{{Path: "in", Mapper: MapperFunc(func(string, Emit) error { return nil })}},
			Reducer: ReducerFunc(func(key string, values []string, emit func(string)) error {
				calls.Add(1)
				emit(fmt.Sprintf("%q:%d", key, len(values)))
				return nil
			}),
			Output:       "out",
			GlobalReduce: global,
		}
		stats, err := e.runJob(job)
		if err != nil {
			t.Fatal(err)
		}
		out, err := dfs.Read("out")
		if err != nil {
			t.Fatal(err)
		}
		return out, stats
	}
	if out, stats := run(testFaultCluster(), false); len(out) != 0 || stats.ReduceGroups != 0 {
		t.Errorf("plain job over an empty shuffle wrote %q from %d groups, want nothing", out, stats.ReduceGroups)
	}
	want := []string{`"":0`}
	if out, stats := run(testFaultCluster(), true); !reflect.DeepEqual(out, want) || stats.ReduceGroups != 1 {
		t.Errorf("global job over an empty shuffle wrote %q from %d groups, want %q from 1", out, stats.ReduceGroups, want)
	}
	for seed := int64(1); seed <= 20; seed++ {
		c := testFaultCluster()
		c.Faults = &FaultPlan{Seed: seed, TaskFailureProb: 0.5}
		calls.Store(0)
		if out, _ := run(c, true); !reflect.DeepEqual(out, want) || calls.Load() != 1 {
			t.Fatalf("seed %d: global job under faults wrote %q in %d reduce calls, want %q in 1", seed, out, calls.Load(), want)
		}
	}
}

// callCounts counts a job's user-code calls: Map per input line, Combine per
// (map task, key) and Reduce per key. A combine group is named by its key
// and first value, since no two lines of geometryInput's two inputs share a
// (key, value) pair.
type callCounts struct {
	mu                      sync.Mutex
	maps, combines, reduces map[string]int
}

func (c *callCounts) count(m map[string]int, k string) {
	c.mu.Lock()
	m[k]++
	c.mu.Unlock()
}

// job returns a geometry job with a summing combiner whose every stage
// counts its calls into c, reset.
func (c *callCounts) job() *Job {
	c.maps, c.combines, c.reduces = map[string]int{}, map[string]int{}, map[string]int{}
	sum := func(values []string) (string, error) {
		var n int64
		for _, v := range values {
			x, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return "", err
			}
			n += x
		}
		return strconv.FormatInt(n, 10), nil
	}
	mapper := MapperFunc(func(line string, emit Emit) error {
		c.count(c.maps, line)
		key, value, _ := strings.Cut(line, " ")
		emit(key, value)
		return nil
	})
	job := geometryJob(mapper)
	job.Combiner = CombinerFunc(func(key string, values []string) (string, error) {
		c.count(c.combines, key+" "+values[0])
		return sum(values)
	})
	job.Reducer = ReducerFunc(func(key string, values []string, emit func(string)) error {
		c.count(c.reduces, key)
		s, err := sum(values)
		emit(key + "\t" + s)
		return err
	})
	return job
}

// TestFaultRunsUserCodeOnce: a fault plan that retries map and reduce tasks,
// recomputes map output lost to a node death in the map window and another
// in the shuffle window, and races speculative backups charges all of it in
// simulated seconds but runs the user code exactly as the fault-free run
// does: Map once per line, Combine once per (map task, key), Reduce once
// per key, at any worker count.
func TestFaultRunsUserCodeOnce(t *testing.T) {
	cluster := func(deaths ...NodeFailure) *Cluster {
		c := geometryCluster()
		c.Cost.SplitSize = 4 << 10 // 20 map tasks, so every node holds map output
		if deaths != nil {
			c.Faults = &FaultPlan{Seed: 5, TaskFailureProb: 0.3, StragglerProb: 0.3, StragglerFactor: 5,
				NodeFailures: deaths}
			c.Speculation = Speculation{Enabled: true}
		}
		return c
	}
	var clean callCounts
	want := runGeometry(t, cluster(), clean.job(), 1)
	if want.err != nil {
		t.Fatal(want.err)
	}
	// The map-window death alone fixes when the map phase ends; a death
	// halfway through the shuffle that follows cannot move that end.
	mapDeath := NodeFailure{Node: 0, At: 14}
	var probe callCounts
	first := runGeometry(t, cluster(mapDeath), probe.job(), 1)
	if first.err != nil {
		t.Fatal(first.err)
	}
	shuffleDeath := NodeFailure{Node: 1, At: first.stats.StartupTime + first.stats.MapTime + first.stats.ShuffleTime/2}
	for _, workers := range []int{1, 8} {
		var got callCounts
		run := runGeometry(t, cluster(mapDeath, shuffleDeath), got.job(), workers)
		if run.err != nil {
			t.Fatal(run.err)
		}
		s := run.stats
		if s.MapTaskRetries == 0 || s.ReduceTaskRetries == 0 || s.SpeculativeTasks == 0 ||
			s.RecomputedMapTasks <= first.stats.RecomputedMapTasks || first.stats.RecomputedMapTasks == 0 {
			t.Fatalf("workers=%d: retries %d/%d, %d backups, %d recomputed (%d before the shuffle death): the plan does not exercise every recovery path",
				workers, s.MapTaskRetries, s.ReduceTaskRetries, s.SpeculativeTasks, s.RecomputedMapTasks, first.stats.RecomputedMapTasks)
		}
		for _, c := range []struct {
			stage     string
			got, want map[string]int
		}{
			{"Map calls per line", got.maps, clean.maps},
			{"Combine calls per (task, key)", got.combines, clean.combines},
			{"Reduce calls per key", got.reduces, clean.reduces},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				total := func(m map[string]int) (n int) {
					for _, v := range m {
						n += v
					}
					return n
				}
				t.Errorf("workers=%d: %s differ from the fault-free run's: %d calls, want %d", workers, c.stage, total(c.got), total(c.want))
			}
		}
		if !reflect.DeepEqual(run.rows, want.rows) {
			t.Errorf("workers=%d: rows differ from the fault-free run's", workers)
		}
	}
}
