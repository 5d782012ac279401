package mapreduce

import (
	"cmp"
	"slices"
	"unsafe"
	"weak"
)

// scratch is what a job fills and empties again, carried so that the next
// job, and the next chain, reuses what an earlier one grew: the grouping
// of the driver's shuffle, and each pool worker's combiner grouping,
// map-output index array, free pair chunks and reduce output lines.
// Hadoop allocates its map-side sort buffer and its reduce-side merge
// buffers once per task JVM the same way.
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
	spans   []span          // the started chunks' address ranges, for viewed
}

// span is the address range of a chunk's array, [lo, hi).
type span struct{ lo, hi uintptr }

// workerScratch is one pool worker's share of the scratch.
type workerScratch struct {
	combine grouping
	index   []int32 // lent to the worker's Output for a job (Output.index)
	// chunks are empty pair chunks, lent to the worker's Output for a job
	// (Output.free), and started the log of those it starts (Output.started).
	chunks, started [][]byte
	// lines are the lines the worker's reducer instance emitted in the
	// reduce phase, until Engine.reduce gathers them; emit appends to it.
	lines []string
	emit  func(line string)
}

// emitter returns the function that appends a line to w's lines, built
// once for the scratch's life.
func (w *workerScratch) emitter() func(line string) {
	if w.emit == nil {
		w.emit = func(line string) { w.lines = append(w.lines, line) }
	}
	return w.emit
}

// gather returns the runs' lines in run order, in one slice of exactly
// their count, for the DFS to keep. A lone run's lines are its worker's
// whole slice: when that has little room to spare, it is handed over as
// it stands and the worker grows a new one, as a fresh engine's would;
// any other output is copied, and the workers keep their slices.
func (s *scratch) gather(runs []keyRun) []string {
	if len(runs) == 1 {
		ws := &s.workers[runs[0].worker]
		if n := len(ws.lines); n > 0 && cap(ws.lines)-n <= n/4 {
			lines := ws.lines[:n:n]
			ws.lines = nil
			return lines
		}
	}
	total := 0
	for _, run := range runs {
		total += run.hi - run.lo
	}
	lines := make([]string, 0, total)
	for _, run := range runs {
		lines = append(lines, s.workers[run.worker].lines[run.lo:run.hi]...)
	}
	return lines
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

// lend hands each worker's index array and chunk log to its Output for a
// job, and its free chunks too if reduce is set. A map-only job's output
// lines are its pairs, which the DFS keeps, so the chunks it starts are
// never freed: it starts new ones, and leaves the free list to the next
// job with a reducer.
func (s *scratch) lend(outs []Output, reduce bool) {
	for w := range outs {
		ws := &s.workers[w]
		outs[w].index, outs[w].started = ws.index, ws.started
		if reduce {
			outs[w].free = ws.chunks
		}
	}
}

// viewed reports whether a non-empty line of lines views a chunk an
// Output started this job: whether its bytes lie in a chunk's array, found
// by a binary search of the chunks' sorted address ranges. A reducer that
// copies its lines views none; one that emits a value as it stands does.
func (s *scratch) viewed(lines []string, outs []Output) bool {
	n := 0
	for w := range outs {
		n += len(outs[w].started)
	}
	spans := slices.Grow(s.spans[:0], n)
	for w := range outs {
		for _, c := range outs[w].started {
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(c)))
			spans = append(spans, span{lo, lo + uintptr(cap(c))})
		}
	}
	s.spans = spans[:0]
	if len(spans) == 0 {
		return false
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for _, line := range lines {
		if len(line) == 0 {
			continue
		}
		p := uintptr(unsafe.Pointer(unsafe.StringData(line)))
		i, found := slices.BinarySearchFunc(spans, p, func(sp span, p uintptr) int { return cmp.Compare(sp.lo, p) })
		if found || i > 0 && p < spans[i-1].hi {
			return true
		}
	}
	return false
}

// endJob ends a job on the scratch, once nothing reads the job's lists or
// groups: it takes the index arrays, the free chunks it lent and the chunk
// logs back from the Outputs, which drop the job's lists and, if recycle
// is set, free the chunks the job started (Output.endJob), and it clears
// every string the groupings hold, so the scratch pins no chunk of a
// finished job.
func (s *scratch) endJob(outs []Output, recycle bool) {
	for w := range outs {
		ws := &s.workers[w]
		var free [][]byte
		ws.index, free, ws.started = outs[w].endJob(recycle)
		if free != nil { // nil: the free list was not lent, or was and is still nil
			ws.chunks = free
		}
		ws.combine.release()
	}
	s.shuffle.release()
}
