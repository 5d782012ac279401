package mapreduce

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// The worker pool. Map morsels, per-task combiners and reduce key runs (see
// shuffle.go for how a job is cut into them) fan out across Engine.Workers
// goroutines. Every parallel section follows
// the same discipline:
//
//   - the driver builds the complete work list up front (DFS reads and
//     trace emission happen on the driver, in task order, before any
//     worker starts);
//   - each work item writes only into its own slot of a pre-sized result
//     slice;
//   - a phase's stage instances are per worker, not per item (the lifetime
//     rule of the stage contract in job.go): a worker builds its instance
//     on its first item of the phase, keeps it in its slot of the job's
//     jobWorker slice and feeds it every item it takes, in ascending
//     order. Which items share an instance is host scheduling, so the
//     contract makes an instance's output independent of it, and what the
//     instances counted is summed after the join (endPhase);
//   - the driver gathers results after the join in an order the data
//     fixes: ascending item index.
//
// Host scheduling therefore never reaches anything observable: JobStats,
// DFS contents, traces and fault schedules are byte-identical at any worker
// count. Goroutine identity is deliberately absent from spans — task spans
// carry the deterministic simulated slot instead (see emitWaves) — because
// a host goroutine id would differ between runs and break replay.

// SetWorkers sets how many goroutines execute this engine's tasks (a new
// engine starts with runtime.NumCPU). n <= 1 means fully sequential
// execution on the calling goroutine. Results are byte-identical at any
// worker count; only host wall-clock changes.
func (e *Engine) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	e.workers = n
}

// Workers returns the engine's worker count.
func (e *Engine) Workers() int { return e.workers }

// forEachTask runs fn(w, i) for i in 0..n-1 across the engine's workers and
// joins before returning. w is the worker running item i: below
// min(workers, n), and 0 on the inline path. A worker takes its items in
// ascending order, so state indexed by w belongs to one goroutine and sees
// its items sorted: that is how a phase keeps one stage instance per worker.
// Each call must confine its writes to per-index and per-worker state. The
// returned error is the lowest-indexed failure, matching what a sequential
// loop that stops at the first error would report; on the inline (single
// worker) path later tasks are genuinely not run, which is indistinguishable
// because a failed job contributes no stats or output. Every item goes
// through runItem, so a stopped context or a panic is that item's failure.
func (e *Engine) forEachTask(n int, fn func(w, i int) error) error {
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := e.runItem(fn, 0, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				// The atomic fetch-add hands each iteration a unique index,
				// so the errs[i] slots are disjoint.
				errs[i] = e.runItem(fn, w, i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runItem runs work item i on worker w unless the chain's context is done,
// and turns a panic in it into its error: one check and one deferred
// recover per item, nothing per row.
func (e *Engine) runItem(fn func(w, i int) error, w, i int) (err error) {
	if e.ctx != nil {
		if err := e.ctx.Err(); err != nil {
			return err
		}
	}
	defer func() {
		if r := recover(); r != nil {
			err = panicError(r)
		}
	}()
	return fn(w, i)
}

// panicError is the error a recovered panic in user code becomes.
func panicError(r any) error { return fmt.Errorf("panic: %v", r) }
