package mapreduce

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"ysmart/internal/obs"
)

// chainJobs builds a three-job dependent chain over the given DFS content.
func chainJobs() []*Job {
	j1 := wordCountJob("in", "m")
	j1.Name = "j1"
	j2 := wordCountJob("m", "o")
	j2.Name = "j2"
	j2.DependsOn = []*Job{j1}
	j3 := wordCountJob("o", "p")
	j3.Name = "j3"
	j3.DependsOn = []*Job{j2}
	return []*Job{j1, j2, j3}
}

func TestTopoSortDirect(t *testing.T) {
	// Diamond: d depends on b and c, which both depend on a.
	a := wordCountJob("in", "a")
	a.Name = "a"
	b := wordCountJob("a", "b")
	b.Name = "b"
	b.DependsOn = []*Job{a}
	c := wordCountJob("a", "c")
	c.Name = "c"
	c.DependsOn = []*Job{a}
	d := wordCountJob("b", "d")
	d.Name = "d"
	d.DependsOn = []*Job{b, c}
	ordered, err := topoSort([]*Job{d, c, b, a})
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[string]int)
	for i, j := range ordered {
		pos[j.Name] = i
	}
	if len(ordered) != 4 || pos["a"] > pos["b"] || pos["a"] > pos["c"] || pos["b"] > pos["d"] || pos["c"] > pos["d"] {
		t.Errorf("diamond order wrong: %v", pos)
	}

	// Cycle.
	x := wordCountJob("in", "x")
	x.Name = "x"
	y := wordCountJob("x", "y")
	y.Name = "y"
	x.DependsOn = []*Job{y}
	y.DependsOn = []*Job{x}
	if _, err := topoSort([]*Job{x, y}); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle err = %v", err)
	}

	// Dependency outside the submitted set.
	z := wordCountJob("in", "z")
	z.Name = "z"
	z.DependsOn = []*Job{a}
	if _, err := topoSort([]*Job{z}); err == nil || !strings.Contains(err.Error(), "not in the chain") {
		t.Errorf("outside-dep err = %v", err)
	}
}

func TestChainStatsTotalsIncludeGaps(t *testing.T) {
	cluster := FacebookCluster(7)
	cluster.DataScale = 1
	dfs := NewDFS()
	dfs.Write("in", []string{"a b", "b c"})
	e, err := NewEngine(dfs, cluster)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.RunChain(chainJobs())
	if err != nil {
		t.Fatal(err)
	}
	var wantTotal, phases, gaps float64
	var wantScan, wantShuffle int64
	for _, js := range st.Jobs {
		wantTotal += js.TotalTime()
		phases += js.StartupTime + js.MapTime + js.ShuffleTime + js.ReduceTime
		gaps += js.GapBefore
		wantScan += js.MapInputBytes
		wantShuffle += js.ShuffleBytes
	}
	if got := st.TotalTime(); got != wantTotal {
		t.Errorf("TotalTime = %f, want per-job sum %f", got, wantTotal)
	}
	if gaps <= 0 {
		t.Fatal("contention cluster produced no gaps")
	}
	if st.TotalTime() <= phases {
		t.Errorf("TotalTime %f must include %f of gaps beyond phase time %f", st.TotalTime(), gaps, phases)
	}
	if st.TotalMapInputBytes() != wantScan || st.TotalShuffleBytes() != wantShuffle {
		t.Errorf("byte totals = %d/%d, want %d/%d",
			st.TotalMapInputBytes(), st.TotalShuffleBytes(), wantScan, wantShuffle)
	}
}

// runChainOnce executes the canonical chain on a fresh engine, optionally
// instrumented, and returns its stats plus final output.
func runChainOnce(t *testing.T, tracer *obs.Collector, metrics *obs.Registry) (*ChainStats, []string) {
	t.Helper()
	cluster := FacebookCluster(3)
	cluster.DataScale = 1
	dfs := NewDFS()
	dfs.Write("in", []string{"a b c", "b c d", "c d e"})
	e, err := NewEngine(dfs, cluster)
	if err != nil {
		t.Fatal(err)
	}
	e.Instrument(tracer, metrics)
	st, err := e.RunChain(chainJobs())
	if err != nil {
		t.Fatal(err)
	}
	out, err := dfs.Read("p")
	if err != nil {
		t.Fatal(err)
	}
	return st, out
}

func TestTracedRunIdenticalToUntraced(t *testing.T) {
	plain, plainOut := runChainOnce(t, nil, nil)
	col := obs.NewCollector()
	reg := obs.NewRegistry()
	traced, tracedOut := runChainOnce(t, col, reg)

	if !reflect.DeepEqual(plain.Jobs, traced.Jobs) {
		t.Errorf("instrumentation changed JobStats:\nplain  %+v\ntraced %+v", plain.Jobs, traced.Jobs)
	}
	if !reflect.DeepEqual(plainOut, tracedOut) {
		t.Errorf("instrumentation changed results: %v vs %v", plainOut, tracedOut)
	}
	if col.Len() == 0 {
		t.Fatal("collector recorded nothing")
	}
	if reg.Value("ysmart_engine_jobs_total") != 3 {
		t.Errorf("jobs_total = %v, want 3", reg.Value("ysmart_engine_jobs_total"))
	}
}

// TestFailedChainClosesItsSpan: a chain that fails part-way still emits
// exactly one chain span, ended at the simulated time of the failure.
func TestFailedChainClosesItsSpan(t *testing.T) {
	col := obs.NewCollector()
	dfs := NewDFS()
	dfs.Write("in", []string{"a b c"})
	e, err := NewEngine(dfs, SmallCluster())
	if err != nil {
		t.Fatal(err)
	}
	e.Instrument(col, nil)
	j1 := wordCountJob("in", "out1")
	j1.Name = "j1"
	j2 := wordCountJob("missing", "out2")
	j2.Name = "j2"
	j2.DependsOn = []*Job{j1}

	_, err = e.RunChain([]*Job{j1, j2})
	var notFound *FileNotFoundError
	if !errors.As(err, &notFound) || notFound.Path != "missing" {
		t.Fatalf("RunChain err = %v, want FileNotFoundError for %q", err, "missing")
	}
	var chains []obs.Event
	for _, ev := range col.Events() {
		if ev.Cat == "chain" {
			chains = append(chains, ev)
		}
	}
	if len(chains) != 1 {
		t.Fatalf("failed chain emitted %d chain spans, want 1", len(chains))
	}
	if e.Now() <= 0 || chains[0].Time != 0 || chains[0].End() != e.Now() {
		t.Errorf("chain span [%v, %v], want [0, %v] (the failure's simulated time)",
			chains[0].Time, chains[0].End(), e.Now())
	}
}

func TestTraceSpanNesting(t *testing.T) {
	col := obs.NewCollector()
	st, _ := runChainOnce(t, col, nil)
	events := col.Events()

	byCat := make(map[string][]obs.Event)
	for _, ev := range events {
		byCat[ev.Cat] = append(byCat[ev.Cat], ev)
	}
	if len(byCat["job"]) != 3 {
		t.Fatalf("job spans = %d, want 3", len(byCat["job"]))
	}
	if len(byCat["chain"]) != 1 {
		t.Fatalf("chain spans = %d, want 1", len(byCat["chain"]))
	}
	if len(byCat["gap"]) == 0 || len(byCat["dfs"]) == 0 {
		t.Errorf("expected gap and dfs events, got %d/%d", len(byCat["gap"]), len(byCat["dfs"]))
	}

	const eps = 1e-6
	contains := func(outer, inner obs.Event) bool {
		return outer.Time <= inner.Time+eps && outer.End()+eps >= inner.End()
	}
	chain := byCat["chain"][0]
	for _, job := range byCat["job"] {
		if !contains(chain, job) {
			t.Errorf("chain [%f,%f] does not contain job %s [%f,%f]",
				chain.Time, chain.End(), job.Name, job.Time, job.End())
		}
	}
	// Every phase nests in its track's job span; every wave nests in the
	// phase it is named after; every task nests in some wave.
	jobByTrack := make(map[string]obs.Event)
	for _, job := range byCat["job"] {
		jobByTrack[job.Track] = job
	}
	for _, ph := range byCat["phase"] {
		job, ok := jobByTrack[ph.Track]
		if !ok || !contains(job, ph) {
			t.Errorf("phase %s on %s not nested in its job span", ph.Name, ph.Track)
		}
	}
	phaseSpan := func(track, name string) (obs.Event, bool) {
		for _, ph := range byCat["phase"] {
			if ph.Track == track && ph.Name == name {
				return ph, true
			}
		}
		return obs.Event{}, false
	}
	for _, wv := range byCat["wave"] {
		phaseName := strings.SplitN(wv.Name, "-", 2)[0] // "map-wave-0" -> "map"
		ph, ok := phaseSpan(wv.Track, phaseName)
		if !ok || !contains(ph, wv) {
			t.Errorf("wave %s on %s not nested in phase %s", wv.Name, wv.Track, phaseName)
		}
	}
	for _, task := range byCat["task"] {
		if task.Kind != obs.Span {
			continue // tasks-elided instant
		}
		nested := false
		for _, wv := range byCat["wave"] {
			if wv.Track == task.Track && contains(wv, task) {
				nested = true
				break
			}
		}
		if !nested {
			t.Errorf("task %s on %s not nested in any wave", task.Name, task.Track)
		}
	}
	// The chain span duration matches the stats total.
	if got, want := chain.Dur, st.TotalTime(); got < want-eps || got > want+eps {
		t.Errorf("chain span dur = %f, want stats total %f", got, want)
	}
}

func TestTraceChromeDeterministic(t *testing.T) {
	build := func() []byte {
		col := obs.NewCollector()
		runChainOnce(t, col, nil)
		return obs.ChromeTrace(col.Events())
	}
	if b1, b2 := build(), build(); !bytes.Equal(b1, b2) {
		t.Error("traced runs produced different Chrome trace bytes")
	}
}

func TestTasksElidedOverCap(t *testing.T) {
	cluster := SmallCluster()
	dfs := NewDFS()
	dfs.Write("in", []string{"a b", "c d", "e f", "g h"})
	inBytes := dfs.SizeBytes("in")
	// Scale the input so the job needs more than maxTracedTasks map tasks.
	cluster.DataScale = float64(maxTracedTasks+10) * float64(cluster.Cost.SplitSize) / float64(inBytes)
	e, err := NewEngine(dfs, cluster)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	e.Instrument(col, nil)
	if _, err := e.RunJob(wordCountJob("in", "out")); err != nil {
		t.Fatal(err)
	}
	var taskSpans, elided, waves int
	for _, ev := range col.Events() {
		switch {
		case ev.Cat == "task" && ev.Kind == obs.Span && strings.HasPrefix(ev.Name, "map-"):
			taskSpans++
		case ev.Name == "tasks-elided" && ev.Arg("phase") == "map":
			elided++
		case ev.Cat == "wave" && strings.HasPrefix(ev.Name, "map-"):
			waves++
		}
	}
	if taskSpans != 0 {
		t.Errorf("map task spans = %d, want 0 above the cap", taskSpans)
	}
	if elided != 1 {
		t.Errorf("tasks-elided instants = %d, want 1", elided)
	}
	if waves == 0 {
		t.Error("wave spans should still be emitted above the cap")
	}
}

// TestReduceCountsSum: tasks' counts add up index by index, and the job's
// dispatch is the sum without the operators that saw no rows, by name.
func TestReduceCountsSum(t *testing.T) {
	var sum ReduceCounts
	sum.add(ReduceCounts{Work: 7, Dispatch: []OpDispatch{{Op: "SORT1", InRows: 3, OutRows: 3}, {Op: "JOIN1"}, {Op: "AGG1", InRows: 10, OutRows: 4}}})
	sum.add(ReduceCounts{Work: 5, Dispatch: []OpDispatch{{Op: "SORT1"}, {Op: "JOIN1"}, {Op: "AGG1", InRows: 15, OutRows: 5}}})
	if sum.Work != 12 {
		t.Errorf("work = %d, want 12", sum.Work)
	}
	want := []OpDispatch{
		{Op: "AGG1", InRows: 25, OutRows: 9},
		{Op: "SORT1", InRows: 3, OutRows: 3},
	}
	if got := dispatchOf(sum.Dispatch); !reflect.DeepEqual(got, want) {
		t.Errorf("dispatchOf = %+v, want %+v", got, want)
	}
	if got := dispatchOf([]OpDispatch{{Op: "JOIN1"}}); got != nil {
		t.Errorf("dispatchOf of idle operators = %+v, want nil", got)
	}
}

func TestDFSInstrumentCounts(t *testing.T) {
	dfs := NewDFS()
	col := obs.NewCollector()
	reg := obs.NewRegistry()
	dfs.Instrument(col, reg, func() float64 { return 42 })
	dfs.Write("f", []string{"ab", "cd"})
	if _, err := dfs.Read("f"); err != nil {
		t.Fatal(err)
	}
	var reads, writes int
	for _, ev := range col.Events() {
		switch ev.Name {
		case "dfs.read":
			reads++
			if ev.Time != 42 || ev.Arg("path") != "f" || ev.Arg("bytes") != int64(6) {
				t.Errorf("read instant wrong: %+v", ev)
			}
		case "dfs.write":
			writes++
		}
	}
	if reads != 1 || writes != 1 {
		t.Errorf("reads=%d writes=%d, want 1/1", reads, writes)
	}
	if reg.Value("ysmart_dfs_reads_total") != 1 || reg.Value("ysmart_dfs_read_bytes_total") != 6 {
		t.Errorf("read metrics wrong: %v / %v",
			reg.Value("ysmart_dfs_reads_total"), reg.Value("ysmart_dfs_read_bytes_total"))
	}
	// Detaching restores the silent default.
	dfs.Instrument(nil, nil, nil)
	dfs.Write("g", []string{"x"})
	if col.Len() != 2 {
		t.Errorf("events after detach = %d, want 2", col.Len())
	}
}
