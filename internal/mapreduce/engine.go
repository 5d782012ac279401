package mapreduce

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"weak"

	"ysmart/internal/obs"
)

// Engine executes jobs against a DFS and costs them against a cluster
// model. It is not safe for concurrent use: callers drive one chain at a
// time. Internally, however, the engine fans map morsels, combiners and
// reduce key runs out across a pool of worker goroutines (see parallel.go
// and shuffle.go); every gather follows an order the data fixes, so
// output, stats and traces are byte-identical at any worker count.
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
	// outs are the pool workers' map outputs, one a worker, carried from
	// job to job (outputs).
	outs []Output
	// scratchRef weakly holds the containers jobs fill and empty again
	// (scratch.go): strongly held only while a chain runs.
	scratchRef weak.Pointer[scratch]
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

// RunChainContext executes jobs one after another in the order given (the
// way Hive drove its job chains) and returns per-job stats in that order.
// The order is the chain's producer's to settle: a job's intermediate inputs
// are DFS paths an earlier job wrote, and an input no job has written yet
// fails its job with a FileNotFoundError that stops the chain.
// ctx stops the chain at the engine's work-item boundaries — before every
// job, map morsel, combiner task and reduce key run, never per row — and
// the chain then fails with ctx's error and no stats. A check that does
// not fire changes nothing: output, stats and traces are those of a run
// that cannot be stopped. A panic in user code, on a worker or on this
// goroutine, fails the job it ran in with an error naming the panic.
func (e *Engine) RunChainContext(ctx context.Context, jobs []*Job) (*ChainStats, error) {
	e.ctx = ctx
	defer func() { e.ctx = nil }()
	// The chain's jobs share one scratch: held here until the chain ends,
	// after which only the engine's weak pointer reaches it.
	defer runtime.KeepAlive(e.scratch())
	stats := &ChainStats{}
	chainStart := e.simNow
	e.logger.Info("chain.start",
		obs.F("jobs", int64(len(jobs))), obs.F("sim_s", chainStart))
	// The chain span brackets every job and survives early error returns
	// (TestFailedChainClosesItsSpan); its byte totals are only known once
	// the jobs have run.
	defer func() {
		if e.tracer.Enabled() {
			e.tracer.Emit(obs.SpanEvent("chain", fmt.Sprintf("chain(%d jobs)", len(jobs)),
				"driver", chainStart, e.simNow-chainStart,
				obs.F("jobs", int64(len(jobs))),
				obs.F("map_input_bytes", stats.TotalMapInputBytes()),
				obs.F("shuffle_bytes", stats.TotalShuffleBytes())))
		}
	}()
	for i, j := range jobs {
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
		js, err := e.runJob(j)
		if err != nil {
			return nil, e.chainFailed(j, err)
		}
		js.GapBefore = gap
		stats.Jobs = append(stats.Jobs, js)
	}
	e.metrics.Add("ysmart_engine_chains_total", 1)
	// The chain's end-to-end simulated latency distribution, exported as
	// the ysmart_chain_sim_seconds _bucket/_sum/_count families.
	e.metrics.Observe("ysmart_chain_sim_seconds", e.simNow-chainStart)
	e.logger.Info("chain.done",
		obs.F("jobs", int64(len(jobs))),
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

// nextGap draws the contention-induced delay inserted before a job.
func (e *Engine) nextGap() float64 {
	c := e.cluster.Contention
	if !c.Enabled {
		return 0
	}
	return c.GapMin + e.gapRNG.Float64()*(c.GapMax-c.GapMin)
}

// mapTask is one map task's share of a job input (in indexes Job.Inputs),
// kept so the fault path can re-read a relaunched task's input.
type mapTask struct {
	in    int
	chunk []string
}

// runJob executes a single job: map over every input, optional combine per
// map task, shuffle/group, reduce, and write the output file. It returns
// the job's counters and simulated times, and advances the simulated clock
// past the job (emitting span events when a tracer is attached). A panic
// on the driver goroutine, outside any work item, becomes the job's error.
func (e *Engine) runJob(j *Job) (js *JobStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			js, err = nil, panicError(r)
		}
	}()
	jobStart := e.simNow
	if js, err = e.execJob(j); err != nil {
		return nil, err
	}
	e.finishJob(j, js, jobStart)
	return js, nil
}

// execJob is the execution body of runJob, free of any clock/trace concerns.
func (e *Engine) execJob(j *Job) (*JobStats, error) {
	if err := j.Validate(); err != nil {
		return nil, err
	}
	cl := e.cluster
	stats := &JobStats{Name: j.Name, MapOnly: j.Reducer == nil}

	// ----- Map phase -----------------------------------------------------
	var tasks []mapTask
	for ii, in := range j.Inputs {
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
		tasks = appendChunks(tasks, ii, lines, nTasks)
	}
	workers := make([]jobWorker, e.workers) // every phase's instances (job.go)
	sc, outs := e.scratch(), e.outputs()
	sc.lend(outs, j.Reducer != nil)
	recycle := false // set once the job succeeds with no output line viewing its chunks
	defer func() { sc.endJob(outs, recycle) }()
	// The mappers run morsel by morsel on the worker pool, each worker on
	// its instance of the morsel's input's mapper and into its Output. Each
	// morsel writes only its own slot of lists and its worker's chunks, and
	// everything downstream walks the slots in ascending order — (task,
	// line) order, the sequential engine's map output order.
	morsels, first := tasks, []int(nil)
	if e.workers > 1 {
		morsels, first = cutMorsels(tasks)
	}
	lists := make([]pairList, len(morsels))
	err := e.forEachTask(len(morsels), func(w, i int) error {
		m := morsels[i]
		var err error
		if lists[i], err = runMapper(workers[w].mapTask(j, m.in), m.chunk, &outs[w]); err != nil {
			return fmt.Errorf("map %s: %w", j.Inputs[m.in].Path, err)
		}
		return nil
	})
	endPhase(workers)
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
		err := e.forEachTask(len(tasks), func(w, t int) error {
			lo, hi := t, t+1
			if first != nil {
				lo, hi = first[t], first[t+1]
			}
			out, err := combineTask(&sc.workers[w].combine, lists[lo:hi], workers[w].combineTask(j), &outs[w])
			if err != nil {
				return fmt.Errorf("combine: %w", err)
			}
			combined[t] = out
			return nil
		})
		endPhase(workers)
		if err != nil {
			return nil, err
		}
		lists = combined
	}
	var nPairs int
	for i := range lists {
		nPairs += lists[i].len()
		stats.MapOutputBytes += lists[i].bytes
	}

	// ----- Map-only jobs write straight to the DFS -----------------------
	if j.Reducer == nil {
		mapOnlyLines := make([]string, 0, nPairs)
		for l := range lists {
			list := &lists[l]
			for i := range list.segs {
				s, p, end := list.segment(i)
				for ; p < end; p++ {
					mapOnlyLines = append(mapOnlyLines, s[list.ends[2*p]:list.ends[2*p+1]])
				}
			}
		}
		e.dfs.WriteShared(j.Output, mapOnlyLines)
		stats.MapOutputRecords = int64(nPairs)
		stats.MapOutputBytes = linesBytes(mapOnlyLines)
		stats.ReduceOutputRecords = stats.MapOutputRecords
		stats.ReduceOutputBytes = stats.MapOutputBytes
		if err := e.costJob(j, stats, preCombineBytes, tasks); err != nil {
			return nil, err
		}
		return stats, nil
	}

	stats.MapOutputRecords = int64(nPairs)
	stats.ShuffleBytes = stats.MapOutputBytes
	if cl.Compress {
		stats.ShuffleBytes = int64(float64(stats.ShuffleBytes) * cl.Cost.CompressionRatio)
	}

	// ----- Shuffle: group and sort ----------------------------------------
	numReduce := j.NumReduceTasks
	if numReduce <= 0 {
		numReduce = cl.DefaultReduceTasks()
	}
	stats.NumReduceTasks = numReduce

	groups := sc.shuffle.groupPairs(lists) // on the driver, at any worker count
	if len(groups) == 0 && j.GlobalReduce {
		groups = []keyGroup{{}} // the empty key's group, with no values
	}
	stats.ReduceGroups = int64(len(groups))
	stats.ReduceInputRecords = int64(nPairs)
	stats.MaxPartitionGroups, stats.MaxPartitionValues = reducerSizes(groups, numReduce)

	// ----- Reduce ---------------------------------------------------------
	outLines, counts, err := e.reduce(j, groups, nPairs, workers, sc)
	if err != nil {
		return nil, err
	}
	stats.ReduceWorkRecords = max(stats.ReduceInputRecords, counts.Work)
	stats.Dispatch = dispatchOf(counts.Dispatch)
	e.dfs.WriteShared(j.Output, outLines)
	stats.ReduceOutputRecords = int64(len(outLines))
	stats.ReduceOutputBytes = linesBytes(outLines)

	if err := e.costJob(j, stats, preCombineBytes, tasks); err != nil {
		return nil, err
	}
	recycle = !sc.viewed(outLines, outs)
	return stats, nil
}

// reduce runs j's reducer over the sorted key groups, which hold n values,
// and returns the output lines in key order with what the reducer counted.
// The key list is cut into runs (cutRuns) for the worker pool, and every
// worker reduces the runs it takes on its reducer instance, in ascending
// run order, appending the lines to its own line slice in sc, the scratch,
// which is carried from job to job. Before a run, the slice is given room
// for a line a key, what most reducers emit, doubling, so a cold one does
// not regrow line by line. A run records where its lines lie there, and
// after the join they are gathered in run order into one slice of exactly
// their count, the one the DFS keeps (scratch.gather), and the scratch's
// slices are cleared: the output and counts of one instance reducing every
// key, and a phase that allocates that slice and little else once the
// scratch is warm. workers holds the job's slots.
func (e *Engine) reduce(j *Job, groups []keyGroup, n int, workers []jobWorker, sc *scratch) ([]string, ReduceCounts, error) {
	runs := e.cutRuns(groups, n)
	err := e.forEachTask(len(runs), func(w, r int) error {
		reducer, ws := workers[w].reduceTask(j), &sc.workers[w]
		run, emit := &runs[r], ws.emitter()
		if room := cap(ws.lines) - len(ws.lines); room < len(run.groups) {
			ws.lines = slices.Grow(ws.lines, max(len(run.groups), cap(ws.lines)))
		}
		run.worker, run.lo = w, len(ws.lines)
		for _, g := range run.groups {
			if err := reducer.Reduce(g.key, g.values, emit); err != nil {
				return fmt.Errorf("reduce key %q: %w", g.key, err)
			}
		}
		run.hi = len(ws.lines)
		return nil
	})
	counts := endPhase(workers)
	var lines []string
	if err == nil {
		lines = sc.gather(runs)
	}
	for w := range sc.workers {
		ws := &sc.workers[w]
		clear(ws.lines)
		ws.lines = ws.lines[:0]
	}
	if err != nil {
		return nil, ReduceCounts{}, err
	}
	return lines, counts, nil
}

// outputs returns the pool workers' Outputs, one a worker, which the map
// and combine phases write their pairs to. They outlive the job, so each
// worker's segment log, and its open chunk after a job that does not
// recycle its chunks (Output.endJob), serve the next job.
func (e *Engine) outputs() []Output {
	if len(e.outs) != e.workers {
		e.outs = make([]Output, e.workers)
	}
	return e.outs
}

// runMapper runs a map instance over lines, emitting to out, its worker's
// Output, and returns the lines' pairs as one list, counting the lines the
// mapper reports as ErrFiltered.
func runMapper(mapper MapTask, lines []string, out *Output) (pairList, error) {
	out.begin(len(lines))
	emit := out.emitter()
	var filtered int64
	for _, line := range lines {
		if err := mapper.Map(line, emit); err == ErrFiltered {
			filtered++
		} else if err != nil {
			return pairList{}, err
		}
	}
	l := out.take()
	l.filtered = filtered
	return l, nil
}

// combineTask groups one map task's output — the pair lists of its morsels,
// in order — by key on g, its worker's grouping, as the shuffle does, and
// folds every group into one pair with the combiner instance c, written to
// out, its worker's Output. Its pairs leave in sorted key order, which
// nothing downstream sees: the shuffle regroups them by key.
func combineTask(g *grouping, lists []pairList, c CombineTask, out *Output) (pairList, error) {
	groups := g.groupPairs(lists)
	out.begin(len(groups))
	for _, g := range groups {
		v, err := c.Combine(g.key, g.values)
		if err != nil {
			return pairList{}, err
		}
		out.Emit(g.key, v)
	}
	return out.take(), nil
}

// appendChunks appends input in's lines to tasks as n map tasks of nearly
// equal contiguous chunks (fewer when there are fewer lines).
func appendChunks(tasks []mapTask, in int, lines []string, n int) []mapTask {
	n = max(1, min(n, len(lines)))
	per, rem := len(lines)/n, len(lines)%n
	for c := 0; c < n; c++ {
		size := per
		if c < rem {
			size++
		}
		tasks = append(tasks, mapTask{in: in, chunk: lines[:size]})
		lines = lines[size:]
	}
	return tasks
}

// partitionOf is the hash partitioner of simulated reduce tasks: FNV-32a
// of the key, modulo the partition count, computed over the string in
// place.
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

// filteredCPUFactor is the fraction of MapCPUPerRecord a line costs when
// its mapper drops it early (ErrFiltered): the line is still decoded far
// enough to evaluate the filter, but the rest of the map function never
// runs — roughly the decode-and-compare share of a typical map function.
const filteredCPUFactor = 0.15

// mapCPURecords returns the effective record count charged the full
// MapCPUPerRecord: filtered records cost only filteredCPUFactor of a map
// invocation, so early filters lower the predicted map CPU (and
// PredictedTime) in proportion to their selectivity. With no line
// filtered it is exactly the scaled input record count.
func mapCPURecords(s *JobStats, cm CostModel, scale float64) float64 {
	inRecords := float64(s.MapInputRecords) * scale
	filtered := float64(s.MapRecordsFiltered) * scale
	return inRecords - filtered*(1-filteredCPUFactor)
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
// which also charges every extra map launch a DFS re-read of its task's
// input.
func (e *Engine) costJob(j *Job, s *JobStats, preCombineBytes int64, tasks []mapTask) error {
	b := e.phaseBases(s, preCombineBytes)
	cm := e.cluster.Cost
	s.StartupTime = cm.JobStartup
	if e.faultsActive() {
		return e.scheduleJob(j, s, b, tasks)
	}
	s.MapTime = b.mapBase + b.mapWaves*cm.TaskOverhead
	s.ShuffleTime = b.shuffle
	s.ReduceTime = b.redBase + b.redWaves*cm.TaskOverhead
	s.PredictedTime = s.StartupTime + s.MapTime + s.ShuffleTime + s.ReduceTime
	return nil
}
