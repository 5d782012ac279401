package mapreduce

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"

	"ysmart/internal/obs"
)

// Engine executes jobs against a DFS and costs them against a cluster
// model. It is not safe for concurrent use: callers drive one chain at a
// time. Internally, however, the engine fans map morsels, combiners,
// shuffle partitions, reduce key runs and fault-path re-executions out
// across a pool of worker goroutines (see parallel.go and shuffle.go);
// every gather follows an order the data fixes, so output, stats and traces
// are byte-identical at any worker count.
type Engine struct {
	dfs     *DFS
	cluster *Cluster
	gapRNG  *rand.Rand
	workers int

	// tracer, metrics and logger only observe and never change execution;
	// a nil one is off. logger receives structured lifecycle events
	// (chains, jobs, retries, recomputes, node deaths).
	tracer  *obs.Collector
	metrics *obs.Registry
	logger  *obs.Logger
	// simNow is the simulated clock: the end time of everything executed so
	// far on this engine. Span events are stamped with it, so traces from
	// successive chains on one engine share a single timeline.
	simNow float64
	// ctx is the context of the chain being run, checked before every work
	// item (forEachTask); nil outside RunChainContext means never cancelled.
	ctx context.Context
}

// NewEngine builds an engine. The cluster must validate.
func NewEngine(dfs *DFS, cluster *Cluster) (*Engine, error) {
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		dfs:     dfs,
		cluster: cluster,
		gapRNG:  rand.New(rand.NewSource(cluster.Contention.Seed)),
		workers: runtime.NumCPU(),
	}, nil
}

// DFS returns the engine's file system.
func (e *Engine) DFS() *DFS { return e.dfs }

// Cluster returns the engine's cluster model.
func (e *Engine) Cluster() *Cluster { return e.cluster }

// Instrument attaches a tracer and metrics registry to the engine and its
// DFS. Execution and counters are unaffected — tracing only observes. A
// nil tracer or registry turns that sink off.
func (e *Engine) Instrument(t *obs.Collector, r *obs.Registry) {
	e.tracer = t
	e.metrics = r
	e.dfs.Instrument(t, r, e.Now)
}

// SetLogger attaches a structured event logger to the engine (nil turns
// logging off). Job lifecycle, retries, recomputes and node failures are
// logged as one JSON event per line, stamped with the simulated clock.
func (e *Engine) SetLogger(l *obs.Logger) { e.logger = l }

// Now returns the simulated clock in seconds.
func (e *Engine) Now() float64 { return e.simNow }

// RunChain is RunChainContext under a context that is never cancelled.
func (e *Engine) RunChain(jobs []*Job) (*ChainStats, error) {
	return e.RunChainContext(context.Background(), jobs)
}

// RunChainContext executes jobs sequentially in dependency order (the way
// Hive drove its job chains) and returns per-job stats in execution order.
// ctx stops the chain at the engine's work-item boundaries — before every
// job, map morsel, combiner task, shuffle partition, reduce key run and
// fault replay, never per row — and the chain then fails with ctx's error
// and no stats. A check that does not fire changes nothing: output, stats
// and traces are those of a run that cannot be stopped. A panic in user
// code, on a worker or on this goroutine, fails the job it ran in with an
// error naming the panic.
func (e *Engine) RunChainContext(ctx context.Context, jobs []*Job) (*ChainStats, error) {
	ordered, err := topoSort(jobs)
	if err != nil {
		return nil, err
	}
	e.ctx = ctx
	defer func() { e.ctx = nil }()
	stats := &ChainStats{}
	chainStart := e.simNow
	e.logger.Info("chain.start",
		obs.F("jobs", int64(len(ordered))), obs.F("sim_s", chainStart))
	// The chain span brackets every job and survives early error returns
	// (TestFailedChainClosesItsSpan); its byte totals are only known once
	// the jobs have run.
	defer func() {
		if e.tracer.Enabled() {
			e.tracer.Emit(obs.SpanEvent("chain", fmt.Sprintf("chain(%d jobs)", len(ordered)),
				"driver", chainStart, e.simNow-chainStart,
				obs.F("jobs", int64(len(ordered))),
				obs.F("map_input_bytes", stats.TotalMapInputBytes()),
				obs.F("shuffle_bytes", stats.TotalShuffleBytes())))
		}
	}()
	for i, j := range ordered {
		if err := ctx.Err(); err != nil {
			return nil, e.chainFailed(j, err)
		}
		var gap float64
		if i > 0 {
			gap = e.nextGap()
		}
		if gap > 0 {
			if e.tracer.Enabled() {
				e.tracer.Emit(obs.SpanEvent("gap", "gap", "job:"+j.Name, e.simNow, gap))
			}
			e.simNow += gap
		}
		js, err := e.runJobRecovered(j)
		if err != nil {
			return nil, e.chainFailed(j, err)
		}
		js.GapBefore = gap
		stats.Jobs = append(stats.Jobs, js)
	}
	e.metrics.Add("ysmart_engine_chains_total", 1)
	// The chain's end-to-end simulated latency distribution: the per-query
	// histogram behind the p50/p99 figures the load harness reports.
	e.metrics.Observe("ysmart_chain_sim_seconds", e.simNow-chainStart)
	e.logger.Info("chain.done",
		obs.F("jobs", int64(len(ordered))),
		obs.F("sim_s", e.simNow),
		obs.F("total_s", e.simNow-chainStart),
		obs.F("scan_bytes", stats.TotalMapInputBytes()),
		obs.F("shuffle_bytes", stats.TotalShuffleBytes()))
	return stats, nil
}

// chainFailed logs the chain's failure at job j and attributes err to it.
func (e *Engine) chainFailed(j *Job, err error) error {
	e.logger.Error("chain.failed",
		obs.F("job", j.Name), obs.F("error", err.Error()), obs.F("sim_s", e.simNow))
	return fmt.Errorf("job %s: %w", j.Name, err)
}

// runJobRecovered is RunJob with a panic on the driver goroutine, outside
// any work item, turned into the job's error.
func (e *Engine) runJobRecovered(j *Job) (js *JobStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			js, err = nil, panicError(r)
		}
	}()
	return e.RunJob(j)
}

// nextGap draws the contention-induced delay inserted before a job.
func (e *Engine) nextGap() float64 {
	c := e.cluster.Contention
	if !c.Enabled {
		return 0
	}
	return c.GapMin + e.gapRNG.Float64()*(c.GapMax-c.GapMin)
}

func topoSort(jobs []*Job) ([]*Job, error) {
	state := make(map[*Job]int, len(jobs)) // 0 unseen, 1 visiting, 2 done
	inSet := make(map[*Job]bool, len(jobs))
	for _, j := range jobs {
		inSet[j] = true
	}
	var out []*Job
	var visit func(j *Job) error
	visit = func(j *Job) error {
		switch state[j] {
		case 2:
			return nil
		case 1:
			return fmt.Errorf("dependency cycle through job %s", j.Name)
		}
		state[j] = 1
		for _, d := range j.DependsOn {
			if !inSet[d] {
				return fmt.Errorf("job %s depends on %s which is not in the chain", j.Name, d.Name)
			}
			if err := visit(d); err != nil {
				return err
			}
		}
		state[j] = 2
		out = append(out, j)
		return nil
	}
	for _, j := range jobs {
		if err := visit(j); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// kv is one map output pair.
type kv struct{ key, value string }

// mapTask is one map task's share of a job input, kept so the fault path
// can re-execute the task's user code on retries and recomputes.
type mapTask struct {
	input Input
	chunk []string
}

// RunJob executes a single job: map over every input, optional combine per
// map task, shuffle/group, reduce, and write the output file. It returns
// the job's counters and simulated times, and advances the simulated clock
// past the job (emitting span events when a tracer is attached).
func (e *Engine) RunJob(j *Job) (*JobStats, error) {
	jobStart := e.simNow
	stats, err := e.runJob(j)
	if err != nil {
		return nil, err
	}
	e.finishJob(j, stats, jobStart)
	return stats, nil
}

// runJob is the execution body of RunJob, free of any clock/trace concerns.
func (e *Engine) runJob(j *Job) (*JobStats, error) {
	if err := j.Validate(); err != nil {
		return nil, err
	}
	cl := e.cluster
	stats := &JobStats{Name: j.Name, MapOnly: j.Reducer == nil}

	// ----- Map phase -----------------------------------------------------
	var tasks []mapTask
	for _, in := range j.Inputs {
		lines, err := e.dfs.Read(in.Path)
		if err != nil {
			return nil, err
		}
		inBytes := linesBytes(lines)
		stats.MapInputRecords += int64(len(lines))
		stats.MapInputBytes += inBytes

		// Number of map tasks is determined by the scaled input size.
		scaled := float64(inBytes) * cl.DataScale
		nTasks := int(math.Ceil(scaled / float64(cl.Cost.SplitSize)))
		if nTasks < 1 {
			nTasks = 1
		}
		stats.NumMapTasks += nTasks

		// Split actual lines into task chunks so per-task combining matches
		// Hadoop's per-task partial aggregation.
		for _, chunk := range splitChunks(lines, nTasks) {
			tasks = append(tasks, mapTask{input: in, chunk: chunk})
		}
	}
	// The mappers run morsel by morsel on the worker pool. Each morsel
	// writes only its own slot of lists, and everything downstream walks the
	// slots in ascending order — (task, line) order, the sequential
	// engine's map output order.
	morsels, first := tasks, []int(nil)
	if e.workers > 1 {
		morsels, first = cutMorsels(tasks)
	}
	lists := make([]pairList, len(morsels))
	err := e.forEachTask(len(morsels), func(i int) error {
		var err error
		if lists[i], err = runMapper(morsels[i].input, morsels[i].chunk); err != nil {
			return fmt.Errorf("map %s: %w", morsels[i].input.Path, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var preCombineBytes int64
	for i := range lists {
		preCombineBytes += lists[i].bytes
		stats.MapRecordsFiltered += lists[i].filtered
	}
	// The combiner runs once per simulated task, over the task's morsels in
	// order: what reaches the shuffle does not depend on how the host cut
	// the task. (It runs once every map call has succeeded, so a failing
	// mapper outranks a failing combiner whichever task either is in.)
	if j.Reducer != nil && j.Combiner != nil {
		combined := lists // one morsel per task: each task replaces its own slot
		if first != nil {
			combined = make([]pairList, len(tasks))
		}
		err := e.forEachTask(len(tasks), func(t int) error {
			lo, hi := t, t+1
			if first != nil {
				lo, hi = first[t], first[t+1]
			}
			out, err := combineTask(lists[lo:hi], j.Combiner)
			if err != nil {
				return fmt.Errorf("combine: %w", err)
			}
			combined[t] = out
			return nil
		})
		if err != nil {
			return nil, err
		}
		lists = combined
	}
	var nPairs int
	for i := range lists {
		nPairs += len(lists[i].pairs)
		stats.MapOutputBytes += lists[i].bytes
	}

	// ----- Map-only jobs write straight to the DFS -----------------------
	if j.Reducer == nil {
		mapOnlyLines := make([]string, 0, nPairs)
		for i := range lists {
			for _, p := range lists[i].pairs {
				mapOnlyLines = append(mapOnlyLines, p.value)
			}
		}
		e.dfs.WriteShared(j.Output, mapOnlyLines)
		stats.MapOutputRecords = int64(nPairs)
		stats.MapOutputBytes = linesBytes(mapOnlyLines)
		stats.ReduceOutputRecords = stats.MapOutputRecords
		stats.ReduceOutputBytes = stats.MapOutputBytes
		if err := e.costJob(j, stats, preCombineBytes, tasks, nil); err != nil {
			return nil, err
		}
		return stats, nil
	}

	stats.MapOutputRecords = int64(nPairs)
	stats.ShuffleBytes = stats.MapOutputBytes
	if cl.Compress {
		stats.ShuffleBytes = int64(float64(stats.ShuffleBytes) * cl.Cost.CompressionRatio)
	}

	// ----- Shuffle: partition and group ----------------------------------
	numReduce := j.NumReduceTasks
	if numReduce <= 0 {
		numReduce = cl.DefaultReduceTasks()
	}
	stats.NumReduceTasks = numReduce

	groups, err := e.shuffle(lists, e.hostPartitions(nPairs))
	if err != nil {
		return nil, err
	}
	if len(groups) == 0 && j.GlobalReduce {
		groups = []keyGroup{{}} // the empty key's group, with no values
	}
	stats.ReduceGroups = int64(len(groups))
	stats.ReduceInputRecords = int64(nPairs)
	stats.MaxPartitionGroups, stats.MaxPartitionValues = reducerSizes(groups, numReduce)

	// ----- Reduce ---------------------------------------------------------
	// The sorted key list is cut into runs. Every run gets a reducer
	// instance of its own (newReduceTask), built inside the task that uses
	// it, and an output buffer of its own that starts at a line a key, which
	// is what most reducers emit. The buffers are concatenated and what the
	// instances counted is summed, both in run order: the output of one
	// instance reducing every key.
	runs := e.cutRuns(groups, nPairs)
	err = e.forEachTask(len(runs), func(r int) error {
		task := newReduceTask(j)
		out := make([]string, 0, len(runs[r].groups))
		emitLine := func(line string) { out = append(out, line) }
		for _, g := range runs[r].groups {
			if err := task.Reduce(g.key, g.values, emitLine); err != nil {
				return fmt.Errorf("reduce key %q: %w", g.key, err)
			}
		}
		runs[r].lines, runs[r].counts = out, task.Done()
		return nil
	})
	if err != nil {
		return nil, err
	}
	var counts ReduceCounts
	for _, run := range runs {
		counts.add(run.counts)
	}
	outLines := runs[0].lines
	if len(runs) > 1 {
		n := 0
		for _, run := range runs {
			n += len(run.lines)
		}
		outLines = make([]string, 0, n)
		for _, run := range runs {
			outLines = append(outLines, run.lines...)
		}
	} else if cap(outLines)-len(outLines) > len(outLines)/4 {
		// The DFS keeps this slice for good: not with mostly unused capacity.
		outLines = slices.Clone(outLines)
	}
	stats.ReduceWorkRecords = max(stats.ReduceInputRecords, counts.Work)
	stats.Dispatch = dispatchOf(counts.Dispatch)
	e.dfs.WriteShared(j.Output, outLines)
	stats.ReduceOutputRecords = int64(len(outLines))
	stats.ReduceOutputBytes = linesBytes(outLines)

	if err := e.costJob(j, stats, preCombineBytes, tasks, groups); err != nil {
		return nil, err
	}
	return stats, nil
}

// runMapper runs one input's early filter and mapper over lines — on an
// instance of its own when the mapper is a MapTaskFactory. The pairs
// collect in a slab sized by the line count, which holds them all whenever
// the mapper emits at most one pair a line.
func runMapper(in Input, lines []string) (pairList, error) {
	mapper := in.Mapper
	if f, ok := mapper.(MapTaskFactory); ok {
		mapper = f.NewMapTask()
	}
	out := pairList{pairs: make([]kv, 0, len(lines))}
	emit := func(key, value string) {
		out.pairs = append(out.pairs, kv{key, value})
		out.bytes += int64(len(key) + len(value) + 2)
	}
	for _, line := range lines {
		if in.Prefilter != nil && !in.Prefilter(line) {
			out.filtered++
			continue
		}
		if err := mapper.Map(line, emit); err != nil {
			return out, err
		}
	}
	return out, nil
}

// combineTask groups one map task's output — the pair lists of its morsels,
// in order — by key, in first-seen key order, and applies the combiner.
func combineTask(lists []pairList, c Combiner) (pairList, error) {
	groups := groupPairs(lists, nil, 0)
	out := pairList{pairs: make([]kv, 0, len(groups))}
	for _, g := range groups {
		vals, err := c.Combine(g.key, g.values)
		if err != nil {
			return out, err
		}
		for _, v := range vals {
			out.pairs = append(out.pairs, kv{g.key, v})
			out.bytes += int64(len(g.key) + len(v) + 2)
		}
	}
	return out, nil
}

// splitChunks divides lines into n nearly equal contiguous chunks.
func splitChunks(lines []string, n int) [][]string {
	if n <= 1 || len(lines) <= 1 {
		return [][]string{lines}
	}
	if n > len(lines) {
		n = len(lines)
	}
	out := make([][]string, 0, n)
	per := len(lines) / n
	rem := len(lines) % n
	i := 0
	for c := 0; c < n; c++ {
		size := per
		if c < rem {
			size++
		}
		out = append(out, lines[i:i+size])
		i += size
	}
	return out
}

// partitionOf is the hash partitioner, of simulated reduce tasks and host
// shuffle partitions alike: FNV-32a of the key, modulo the partition count,
// computed over the string in place.
func partitionOf(key string, numReduce int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % uint32(numReduce))
}

// ---------------------------------------------------------------------------
// Cost model application
// ---------------------------------------------------------------------------

// mapCPURecords returns the effective record count charged the full
// MapCPUPerRecord: records an early filter rejected cost only the
// prefilter fraction of a map invocation, so installed prefilters lower
// the predicted map CPU (and PredictedTime) in proportion to their
// selectivity. With no prefilter installed it is exactly the scaled input
// record count, keeping fault-free costing byte-identical.
func mapCPURecords(s *JobStats, cm CostModel, scale float64) float64 {
	inRecords := float64(s.MapInputRecords) * scale
	filtered := float64(s.MapRecordsFiltered) * scale
	return inRecords - filtered*(1-cm.prefilterFactor())
}

// phaseBases is the cost model applied to one job's counters: what both
// ways of timing a job start from. A phase's base is its work in seconds at
// the cluster's throughput, without the per-wave task scheduling overhead.
type phaseBases struct {
	mapBase, mapWaves float64
	shuffle           float64
	redBase, redWaves float64 // zero for a map-only job
}

// phaseBases computes the job's phase bases from its counters and names the
// resource that bounds each phase. All byte/record quantities are scaled by
// the cluster DataScale first. Each phase is costed as the maximum of its
// disk-, network- and CPU-bound times (a throughput bottleneck model).
func (e *Engine) phaseBases(s *JobStats, preCombineBytes int64) phaseBases {
	cl := e.cluster
	cm := cl.Cost
	scale := cl.DataScale
	nodes := cl.effectiveNodes()
	repl := float64(cm.HDFSReplication - 1)

	var b phaseBases
	inBytes := float64(s.MapInputBytes) * scale
	b.mapWaves = math.Ceil(float64(s.NumMapTasks) / cl.mapSlots())
	if s.MapOnly {
		// Map output goes straight to the DFS with replication (one local
		// replica on disk, the rest over the network).
		outBytes := float64(s.ReduceOutputBytes) * scale
		mapDisk := (inBytes + outBytes) / (nodes * cm.DiskBandwidth)
		mapNet := outBytes * repl / (nodes * cm.NetworkBandwidth)
		mapCPU := mapCPURecords(s, cm, scale) * cm.MapCPUPerRecord / cl.mapSlots()
		b.mapBase = math.Max(mapDisk+mapNet, mapCPU) * cl.loadFactor()
		s.MapBottleneck = "disk+net"
		if mapCPU > mapDisk+mapNet {
			s.MapBottleneck = "cpu"
		}
		return b
	}

	preBytes := float64(preCombineBytes) * scale
	outBytes := float64(s.MapOutputBytes) * scale
	spillBytes := outBytes
	var compressCPU float64
	if cl.Compress {
		spillBytes *= cm.CompressionRatio
		compressCPU = outBytes * cm.CompressCPUPerByte
	}

	// Map phase. Compression runs inline in the spill path, so its CPU cost
	// adds to the phase rather than overlapping the disk time.
	mapDisk := (inBytes + spillBytes) / (nodes * cm.DiskBandwidth)
	mapCPU := (mapCPURecords(s, cm, scale)*cm.MapCPUPerRecord + preBytes*cm.SortCPUPerByte) / cl.mapSlots()
	b.mapBase = (math.Max(mapDisk, mapCPU) + compressCPU/cl.mapSlots()) * cl.loadFactor()
	s.MapBottleneck = "disk"
	if mapCPU > mapDisk {
		s.MapBottleneck = "cpu"
	}

	// Shuffle.
	shuffleBytes := float64(s.ShuffleBytes) * scale
	shuffleNet := shuffleBytes / (nodes * cm.NetworkBandwidth)
	var decompressCPU float64
	if cl.Compress {
		decompressCPU = shuffleBytes * cm.DecompressCPUPerByte / cl.reduceSlots()
	}
	b.shuffle = (shuffleNet + decompressCPU) * cl.loadFactor()

	// Reduce phase: read merged input from local disk, run the reduce
	// function, write output to the DFS like a map-only job's map phase.
	redInBytes := outBytes // decompressed size
	redRecords := float64(s.ReduceWorkRecords) * scale
	redOutBytes := float64(s.ReduceOutputBytes) * scale
	redDisk := (redInBytes + redOutBytes) / (nodes * cm.DiskBandwidth)
	redNet := redOutBytes * repl / (nodes * cm.NetworkBandwidth)
	redCPU := redRecords * cm.ReduceCPUPerRecord / cl.reduceSlots()
	b.redBase = math.Max(redDisk+redNet, redCPU) * cl.loadFactor()
	b.redWaves = math.Ceil(float64(s.NumReduceTasks) / cl.reduceSlots())
	s.ReduceBottleneck = "disk+net"
	if redCPU > redDisk+redNet {
		s.ReduceBottleneck = "cpu"
	}
	return b
}

// costJob fills the job's simulated times. Fault-free, a phase takes its
// base plus the scheduling overhead of its waves, and that is the model's
// prediction too, so drift is exactly 1. Under an active FaultPlan the same
// bases become per-task durations for the event scheduler (scheduleJob),
// which also replays every extra attempt's user code over tasks and groups.
func (e *Engine) costJob(j *Job, s *JobStats, preCombineBytes int64, tasks []mapTask, groups []keyGroup) error {
	b := e.phaseBases(s, preCombineBytes)
	cm := e.cluster.Cost
	s.StartupTime = cm.JobStartup
	if e.faultsActive() {
		return e.scheduleJob(j, s, b, tasks, groups)
	}
	s.MapTime = b.mapBase + b.mapWaves*cm.TaskOverhead
	s.ShuffleTime = b.shuffle
	s.ReduceTime = b.redBase + b.redWaves*cm.TaskOverhead
	s.PredictedTime = s.StartupTime + s.MapTime + s.ShuffleTime + s.ReduceTime
	return nil
}
