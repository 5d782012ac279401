package mapreduce

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// The worker pool. Map morsels, per-task combiners, shuffle partitions,
// reduce key runs (see shuffle.go for how a job is cut into them) and
// fault-path re-executions fan out across Engine.Workers goroutines. Every
// parallel section follows the same discipline:
//
//   - the driver builds the complete work list up front (DFS reads and
//     trace emission happen on the driver, in task order, before any
//     worker starts);
//   - each work item writes only into its own slot of a pre-sized result
//     slice;
//   - the driver gathers results after the join in an order the data
//     fixes: ascending item index, or a merge by key.
//
// Host scheduling therefore never reaches anything observable: JobStats,
// DFS contents, traces and fault replay are byte-identical at any worker
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

// forEachTask runs fn(0..n-1) across the engine's workers and joins before
// returning. Each call must confine its writes to per-index state. The
// returned error is the lowest-indexed failure, matching what a sequential
// loop that stops at the first error would report; on the inline (single
// worker) path later tasks are genuinely not run, which is indistinguishable
// because a failed job contributes no stats or output. Every item goes
// through runItem, so a stopped context or a panic is that item's failure.
func (e *Engine) forEachTask(n int, fn func(i int) error) error {
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := e.runItem(fn, i); err != nil {
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
				errs[i] = e.runItem(fn, i)
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

// runItem runs work item i unless the chain's context is done, and turns a
// panic in it into its error: one check and one deferred recover per item,
// nothing per row.
func (e *Engine) runItem(fn func(i int) error, i int) (err error) {
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
	return fn(i)
}

// panicError is the error a recovered panic in user code becomes.
func panicError(r any) error { return fmt.Errorf("panic: %v", r) }
