package mapreduce

import "weak"

// scratch is what a job fills and empties again, carried so that the next
// job, and the next chain, reuses what an earlier one grew: the grouping
// of the driver's shuffle, and each pool worker's combiner grouping and
// map-output index array. Hadoop allocates its map-side sort buffer and its
// reduce-side merge buffers once per task JVM the same way.
//
// The engine holds its scratch through a weak pointer (Engine.scratch). A
// chain holds it strongly from its first job to its last (RunChainContext),
// and every job's end leaves it holding no string and the Outputs holding
// no reference to it (endJob). So between chains only the weak pointer
// reaches it: the next collection reclaims it, it never counts in the live
// heap after one, and the chain after that builds a new one. A scratch
// held strongly from chain to chain would be the largest thing a session
// keeps between statements, and would raise the live heap the collector
// paces by.
type scratch struct {
	shuffle grouping
	workers []workerScratch // one a pool worker
}

// workerScratch is one pool worker's share of the scratch.
type workerScratch struct {
	combine grouping
	index   []int32 // lent to the worker's Output for a job (Output.index)
}

// scratch returns the engine's scratch, sized for its workers, building a
// new one if the collector took the last.
func (e *Engine) scratch() *scratch {
	s := e.scratchRef.Value()
	if s == nil {
		s = &scratch{}
		e.scratchRef = weak.Make(s)
	}
	if len(s.workers) != e.workers {
		s.workers = make([]workerScratch, e.workers)
	}
	return s
}

// lend hands each worker's index array to its Output for a job.
func (s *scratch) lend(outs []Output) {
	for w := range outs {
		outs[w].index = s.workers[w].index
	}
}

// endJob ends a job on the scratch, once nothing reads the job's lists or
// groups: it takes the index arrays back from the Outputs, which drop the
// job's lists, and clears every string the groupings hold, so the scratch
// pins no chunk of a finished job.
func (s *scratch) endJob(outs []Output) {
	for w := range outs {
		s.workers[w].index = outs[w].endJob()
		s.workers[w].combine.release()
	}
	s.shuffle.release()
}
