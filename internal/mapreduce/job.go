// Package mapreduce implements a deterministic single-process MapReduce
// engine modelled on Hadoop circa 2010 (the substrate of the YSmart paper).
// Real records flow through user map and reduce functions, and the engine
// accounts every byte read, written, shuffled and materialized exactly the
// way Hadoop charges them: map input from the DFS, sorted map output
// spilled to local disk, shuffle over the network, reduce output written
// back to the DFS with replication. A cluster cost model converts those
// counters into simulated wall-clock seconds, which is what the experiment
// harnesses report.
//
// The engine is deterministic: results, stats and traces are reproducible
// byte-for-byte. Simulated parallelism enters through the cost model
// (nodes × slots); host parallelism enters through the engine's worker
// pool (Engine.SetWorkers), which cuts a job into host-sized units of its
// own (map morsels and reduce key runs — never the simulated cluster's
// tasks) and gathers every result in an order fixed by the data, so the
// two notions never interact.
package mapreduce

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Emit receives one key/value pair from a mapper. A map-only job's mapper
// emits its output lines under the empty key; reducers emit lines through
// func(line string). The Emit the engine gives a mapper is its pool
// worker's Output.Emit, which copies key and value before it returns, so a
// mapper may emit strings that view scratch it reuses for the next line. A
// wrapper that hands an inner mapper an Emit of its own keeps that promise:
// it uses the pair within the call, or copies it.
type Emit func(key, value string)

// The stage contract. A job's mappers, combiner and reducer are classes, as
// the paper's common mapper (§VI.A) and common reducer (Algorithm 1) are:
// the job holds the class — its wiring, fixed when the job is built and
// never written again, so any number of engines may run one job at once —
// and the engine asks it for instances, which hold the scratch a record's
// work reuses. A job has three phases, map, combine and reduce, and each
// runs its stage once over every item: a fault plan's retried, recomputed
// and backup attempts are charged in simulated seconds and run no user
// code. The lifetime rule is one for every stage and every phase: a pool
// worker builds an instance on the first item of the phase it takes and
// feeds it every item it takes, in ascending order (jobWorker). A map
// instance serves one input: a worker moving on to the next input builds
// that input's instance, and since morsels are ordered by input that is at
// most one instance per input per worker. Which items share an instance is
// host scheduling, so a stage's output must depend on each item alone, and
// what instances count is summed after the phase's join. An instance is
// used by one goroutine for one phase of one job; nothing a reducer emits
// or a combiner returns may alias scratch it reuses for the next record.
// A mapper may, since its Emit copies (see Emit): each pool worker owns an
// Output, its map instances' Emit writes every morsel's pairs into the
// Output's chunks and its combiner instance every folded pair. When a job
// ends, its chunks go back to the worker's free list for later jobs to
// write again if no output line the DFS keeps views them, and otherwise
// die with the last string that views them, as a map-only job's output
// lines do. So a key, value or folded pair outlives its job only in an
// output line, which is what ending an instance with its phase keeps.
// MapperFunc, ReducerFunc and CombinerFunc are stateless classes that are
// their own instances, so their functions must be safe for concurrent
// calls.

// Mapper is a map class: one job input's wiring.
type Mapper interface {
	// NewMapTask returns a fresh instance sharing nothing mutable with its
	// class or its siblings.
	NewMapTask() MapTask
}

// MapTask is one map instance.
type MapTask interface {
	// Map transforms one input line into zero or more key/value pairs.
	Map(line string, emit Emit) error
}

// ErrFiltered is returned, unwrapped, by a MapTask for a line an early
// filter dropped, on the model of filepath.SkipDir: it is not an error,
// and the engine counts the line in JobStats.MapRecordsFiltered. A mapper
// returns it only for a line it would otherwise have produced no output
// and no error for, so filtered and unfiltered runs stay byte-identical. Filtered lines
// still count as map input — the scan reads them — but the cost model
// charges them only filteredCPUFactor of the per-record map CPU.
var ErrFiltered = errors.New("mapreduce: line filtered")

// MapperFunc is a stateless Mapper: the function is its own instance.
type MapperFunc func(line string, emit Emit) error

// NewMapTask implements Mapper.
func (f MapperFunc) NewMapTask() MapTask { return f }

// Map implements MapTask.
func (f MapperFunc) Map(line string, emit Emit) error { return f(line, emit) }

// Reducer is a reduce class. Scratch may outlive a key, but key groups
// must be independent of one another: the host cuts the sorted key list
// into runs that workers reduce concurrently, each run's lines gathered in
// run order, so the output is byte-identical to one instance reducing
// every key. An instance sees its keys in ascending order.
type Reducer interface {
	// NewReduceTask returns a fresh instance sharing nothing mutable with
	// its class or its siblings.
	NewReduceTask() ReduceTask
}

// ReduceTask is one reduce instance.
type ReduceTask interface {
	// Reduce processes all values of one key and emits output lines.
	Reduce(key string, values []string, emit func(line string)) error
	// Done ends the instance and returns what it counted; the instance is
	// not used again. The engine calls it once per instance at the end of
	// its phase and sums the counts (sums commute, so the totals do not
	// depend on which worker reduced which keys). Nothing flows back into
	// the class, which is what makes a job description a shareable value.
	Done() ReduceCounts
}

// ReduceCounts is what one reduce instance counted over its key groups.
type ReduceCounts struct {
	// Work is the number of row-processings. A reducer that handles each
	// input value more than once (a common reducer dispatching values
	// through several merged operators) reports more than its input record
	// count, and the engine charges reduce CPU on the larger of the two.
	Work int64
	// Dispatch holds per-operator row counts, indexed like the reducer's
	// operators: every instance of one reducer returns the same operators in
	// the same order. Nil for reducers without an operator graph.
	Dispatch []OpDispatch
}

// add folds another instance's counts in.
func (c *ReduceCounts) add(o ReduceCounts) {
	c.Work += o.Work
	if c.Dispatch == nil {
		c.Dispatch = o.Dispatch
		return
	}
	for i, d := range o.Dispatch {
		c.Dispatch[i].InRows += d.InRows
		c.Dispatch[i].OutRows += d.OutRows
	}
}

// dispatchOf turns a job's summed per-operator counts into JobStats.Dispatch,
// in place: operators that saw no rows are dropped and the rest sorted by
// name (nil when none saw any).
func dispatchOf(counts []OpDispatch) []OpDispatch {
	out := counts[:0]
	for _, d := range counts {
		if d.InRows != 0 || d.OutRows != 0 {
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		return nil
	}
	slices.SortFunc(out, func(a, b OpDispatch) int { return strings.Compare(a.Op, b.Op) })
	return out
}

// ReducerFunc is a stateless Reducer: the function is its own instance,
// and counts nothing.
type ReducerFunc func(key string, values []string, emit func(line string)) error

// NewReduceTask implements Reducer.
func (f ReducerFunc) NewReduceTask() ReduceTask { return f }

// Reduce implements ReduceTask.
func (f ReducerFunc) Reduce(key string, values []string, emit func(line string)) error {
	return f(key, values, emit)
}

// Done implements ReduceTask.
func (ReducerFunc) Done() ReduceCounts { return ReduceCounts{} }

// OpDispatch counts the rows one merged operator consumed and produced
// inside a common reducer — the per-merged-reducer dispatch accounting the
// observability layer reports per job.
type OpDispatch struct {
	Op      string
	InRows  int64
	OutRows int64
}

// Combiner is a combine class: it optionally folds a key's map-side values
// into one before the shuffle — Hive's map-phase hash aggregation (paper §I
// footnote 2) is modelled this way. It must be algebraically compatible
// with the job's reducer. The combine phase runs once per simulated map
// task, and its instances count nothing.
type Combiner interface {
	// NewCombineTask returns a fresh instance sharing nothing mutable with
	// its class or its siblings.
	NewCombineTask() CombineTask
}

// CombineTask is one combine instance.
type CombineTask interface {
	// Combine folds one key group's values into the one value the group
	// carries into the shuffle.
	Combine(key string, values []string) (string, error)
}

// CombinerFunc is a stateless Combiner: the function is its own instance.
type CombinerFunc func(key string, values []string) (string, error)

// NewCombineTask implements Combiner.
func (f CombinerFunc) NewCombineTask() CombineTask { return f }

// Combine implements CombineTask.
func (f CombinerFunc) Combine(key string, values []string) (string, error) {
	return f(key, values)
}

// jobWorker is one pool worker's slot through a job: the instances it
// builds under the lifetime rule. A job allocates its slots once
// (Engine.runJob) and shares them across its phases; every slot dies with
// the job.
type jobWorker struct {
	mapIn    int // the input mapper is an instance of
	mapper   MapTask
	combiner CombineTask
	reducer  ReduceTask
}

// mapTask returns the worker's instance of input in's mapper in the current
// phase, built when the worker reaches the input.
func (w *jobWorker) mapTask(j *Job, in int) MapTask {
	if w.mapper == nil || w.mapIn != in {
		w.mapIn, w.mapper = in, j.Inputs[in].Mapper.NewMapTask()
	}
	return w.mapper
}

// combineTask returns the worker's combiner instance in the current phase.
func (w *jobWorker) combineTask(j *Job) CombineTask {
	if w.combiner == nil {
		w.combiner = j.Combiner.NewCombineTask()
	}
	return w.combiner
}

// reduceTask returns the worker's reducer instance in the current phase.
func (w *jobWorker) reduceTask(j *Job) ReduceTask {
	if w.reducer == nil {
		w.reducer = j.Reducer.NewReduceTask()
	}
	return w.reducer
}

// endPhase ends a phase after its join: it calls Done once on every reducer
// instance and returns the sum, and it drops every instance, so the next
// phase builds its own.
func endPhase(workers []jobWorker) ReduceCounts {
	var counts ReduceCounts
	for i := range workers {
		w := &workers[i]
		if w.reducer != nil {
			counts.add(w.reducer.Done())
		}
		w.mapper, w.combiner, w.reducer = nil, nil, nil
	}
	return counts
}

// Input is one map-side input of a job: a DFS path processed by a mapper.
// A job with several inputs models Hadoop's MultipleInputs (used by reduce-
// side joins, where each table has its own tagging mapper).
type Input struct {
	Path   string
	Mapper Mapper
}

// Job describes one MapReduce job.
type Job struct {
	// Name labels the job in stats and explain output (e.g. "Job1[AGG1]").
	Name string
	// Inputs are the map-side inputs. At least one is required.
	Inputs []Input
	// Reducer processes grouped map output. A nil Reducer makes the job
	// map-only: map output values are written directly to Output.
	Reducer Reducer
	// Combiner, when non-nil, folds map output per map task before the
	// shuffle.
	Combiner Combiner
	// Output is the DFS path the job writes.
	Output string
	// NumReduceTasks overrides the cluster default when > 0. Sort jobs set
	// it to 1 for a total order.
	NumReduceTasks int
	// GlobalReduce marks a job whose every map pair carries the empty key,
	// so its reduce is one key group. An empty shuffle still reduces that
	// group once, with no values, on the partition of the empty key: a
	// global aggregate over no rows yields its one row (SQL). Lowering sets
	// it (cmf.CommonJob.Build).
	GlobalReduce bool
}

// Validate checks the job is runnable.
func (j *Job) Validate() error {
	if j.Name == "" {
		return fmt.Errorf("job has no name")
	}
	if len(j.Inputs) == 0 {
		return fmt.Errorf("job %s has no inputs", j.Name)
	}
	for i, in := range j.Inputs {
		if in.Path == "" {
			return fmt.Errorf("job %s input %d has no path", j.Name, i)
		}
		if in.Mapper == nil {
			return fmt.Errorf("job %s input %d has no mapper", j.Name, i)
		}
	}
	if j.Output == "" {
		return fmt.Errorf("job %s has no output path", j.Name)
	}
	if j.NumReduceTasks < 0 {
		return fmt.Errorf("job %s has negative reduce tasks", j.Name)
	}
	return nil
}
