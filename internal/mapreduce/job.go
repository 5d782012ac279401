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
// own (map morsels, shuffle partitions, reduce key runs — never the
// simulated cluster's tasks) and gathers every result in an order fixed by
// the data, so the two notions never interact.
package mapreduce

import (
	"fmt"
	"slices"
	"strings"
)

// Emit receives one output record from a mapper (key/value) or, with an
// empty key, from a reducer (line).
type Emit func(key, value string)

// Mapper transforms one input record into zero or more key/value pairs.
// Map tasks execute concurrently on the engine's worker pool, so Map must
// be safe for concurrent calls with distinct emit functions — a stateless
// closure over pure decode/filter/project logic is. A mapper that keeps
// scratch from line to line instead hands the engine one instance per map
// task (MapTaskFactory), exactly as Hadoop instantiates a mapper class per
// task.
type Mapper interface {
	Map(line string, emit Emit) error
}

// MapTaskFactory is the map-side twin of ReduceTaskFactory: a Mapper whose
// per-line work reuses scratch (a decode row, key buffers). The engine
// builds one private instance per map morsel — and per fault-path replay of
// a task — inside the task body that uses it, and feeds it the morsel's
// lines in order; its own Map stays the concurrent-safe entry point for
// callers outside the engine.
type MapTaskFactory interface {
	Mapper
	// NewMapTask returns a fresh instance sharing nothing mutable with its
	// parent or its siblings. The instance is used by a single goroutine,
	// and nothing it hands to emit may alias scratch it reuses for the
	// next line.
	NewMapTask() Mapper
}

// MapperFunc adapts a function to the Mapper interface.
type MapperFunc func(line string, emit Emit) error

// Map implements Mapper.
func (f MapperFunc) Map(line string, emit Emit) error { return f(line, emit) }

// Reducer processes all values of one key and emits output lines. Like a
// Mapper's, its key runs execute concurrently on the engine's worker pool,
// so Reduce must be safe for concurrent calls with distinct emit functions
// and keep no state from key to key — a stateless closure over the key's
// values is. A reducer that keeps scratch across keys instead hands the
// engine one instance per reduce task (ReduceTaskFactory).
type Reducer interface {
	Reduce(key string, values []string, emit func(line string)) error
}

// ReduceTaskFactory is implemented by a Reducer whose key groups are
// independent of one another and of the order they are reduced in. The
// engine then drives it the way Hadoop drives a reducer class (and the
// paper's Algorithm 1 its common reducer): one private instance per reduce
// task, fed that task's keys in sorted order, so scratch state can outlive
// a key. On the host a task is a contiguous run of the sorted key list;
// runs execute concurrently, each emitting into its own buffer, and the
// buffers are concatenated in run order — output is byte-identical to one
// instance reducing every key.
type ReduceTaskFactory interface {
	Reducer
	// NewReduceTask returns a fresh instance sharing nothing mutable with
	// its parent or its siblings.
	NewReduceTask() ReduceTask
}

// ReduceTask is one reduce task's private reducer instance. It is used by
// a single goroutine.
type ReduceTask interface {
	// Reduce processes one key group, like Reducer.Reduce. Nothing it hands
	// to emit may alias scratch the instance reuses for the next key.
	Reduce(key string, values []string, emit func(line string)) error
	// Done ends the task and returns what the instance counted; the instance
	// is not used again. The engine sums the counts of a job's tasks (sums
	// commute, so the totals do not depend on how keys were cut into tasks)
	// and drops those of fault-path replays. Nothing flows back into the
	// factory, which is what makes a job description a shareable value.
	Done() ReduceCounts
}

// newReduceTask returns the instance that reduces one key run, or one
// replayed reduce task, of j: a fresh one from a ReduceTaskFactory, or else
// the stateless reducer itself, counting nothing.
func newReduceTask(j *Job) ReduceTask {
	if f, ok := j.Reducer.(ReduceTaskFactory); ok {
		return f.NewReduceTask()
	}
	return statelessTask{j}
}

// statelessTask is a Reducer without a factory as a ReduceTask. It holds
// the job rather than the reducer so that, one pointer wide, it becomes a
// ReduceTask without an allocation.
type statelessTask struct{ job *Job }

// Reduce implements ReduceTask.
func (t statelessTask) Reduce(key string, values []string, emit func(line string)) error {
	return t.job.Reducer.Reduce(key, values, emit)
}

// Done implements ReduceTask: a stateless reducer counts nothing.
func (statelessTask) Done() ReduceCounts { return ReduceCounts{} }

// ReduceCounts is what one reduce task counted over its key groups.
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

// add folds another task's counts in.
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

// ReducerFunc adapts a function to the Reducer interface.
type ReducerFunc func(key string, values []string, emit func(line string)) error

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(key string, values []string, emit func(line string)) error {
	return f(key, values, emit)
}

// OpDispatch counts the rows one merged operator consumed and produced
// inside a common reducer — the per-merged-reducer dispatch accounting the
// observability layer reports per job.
type OpDispatch struct {
	Op      string
	InRows  int64
	OutRows int64
}

// Combiner optionally folds a key's map-side values before the shuffle —
// Hive's map-phase hash aggregation (paper §I footnote 2) is modelled this
// way. It must be algebraically compatible with the job's reducer. Like
// Map, Combine runs inside concurrent map tasks and must be safe for
// concurrent calls.
type Combiner interface {
	Combine(key string, values []string) ([]string, error)
}

// CombinerFunc adapts a function to the Combiner interface.
type CombinerFunc func(key string, values []string) ([]string, error)

// Combine implements Combiner.
func (f CombinerFunc) Combine(key string, values []string) ([]string, error) {
	return f(key, values)
}

// Input is one map-side input of a job: a DFS path processed by a mapper.
// A job with several inputs models Hadoop's MultipleInputs (used by reduce-
// side joins, where each table has its own tagging mapper).
type Input struct {
	Path   string
	Mapper Mapper
	// Prefilter, when non-nil, is an early filter consulted once per input
	// line before the mapper runs: lines for which it returns false are
	// skipped entirely and counted in JobStats.MapRecordsFiltered. An
	// installer must guarantee the mapper would have produced no output and
	// no error for every skipped line (the optanalysis rewriter only injects
	// predicates it can discharge statically), so filtered and unfiltered
	// runs stay byte-identical. Skipped lines still count as map input —
	// the scan reads them — but the cost model charges them only
	// CostModel.PrefilterCPUFactor of the per-record map CPU.
	Prefilter func(line string) bool
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
	// DependsOn lists jobs that must complete before this one starts.
	DependsOn []*Job
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
