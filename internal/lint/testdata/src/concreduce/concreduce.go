// Package concreduce is the golden corpus for the concreduce analyzer:
// a type with a NewReduceTask (or NewMapTask) method hands the engine one
// private instance per reduce (or map) task, so the method must return a
// value it just created, and the instance must never write state reached
// through its factory — the one object shared by sibling tasks and by
// every engine running the job. What a reduce task counts it returns from
// Done.
package concreduce

import (
	"sync"
	"sync/atomic"
)

// task is what a factory returns (mapreduce.ReduceTask in the real tree).
type task interface {
	Reduce(key string, vals []string, emit func(string)) error
	Done() int
}

// good is the exemplar: a fresh instance per call that reads its factory,
// counts privately and returns the count from Done.
type good struct{ weight int }

type goodTask struct {
	parent *good
	n      int
	buf    []byte
}

func (g *good) NewReduceTask() task { return &goodTask{parent: g} }

func (t *goodTask) Reduce(key string, vals []string, emit func(string)) error {
	t.n += t.parent.weight * len(vals)
	t.buf = append(t.buf[:0], key...)
	emit(string(t.buf))
	return nil
}

func (t *goodTask) Done() int {
	t.parent = nil // rebinding the instance's own field is private
	return t.n
}

// viaLocal builds the instance in a local first; just as fresh.
type viaLocal struct{ n int }

type viaLocalTask struct{ parent *viaLocal }

func (v *viaLocal) NewReduceTask() task {
	t := &viaLocalTask{}
	t.parent = v
	return t
}

func (t *viaLocalTask) Reduce(key string, vals []string, emit func(string)) error { return nil }

func (t *viaLocalTask) Done() int { return 0 }

// cached hands every task the same instance.
type cached struct{ inst *cachedTask }

type cachedTask struct{ n int }

func (c *cached) NewReduceTask() task {
	return c.inst // want "cached.NewReduceTask returns a value it did not just create"
}

func (t *cachedTask) Reduce(key string, vals []string, emit func(string)) error { return nil }

func (t *cachedTask) Done() int { return t.n }

// rebound starts from a fresh value and then swaps in a shared one.
type rebound struct{ spare *reboundTask }

type reboundTask struct{ n int }

func (r *rebound) NewReduceTask() task {
	t := &reboundTask{}
	if r.spare != nil {
		t = r.spare
	}
	return t // want "rebound.NewReduceTask returns a value it did not just create"
}

func (t *reboundTask) Reduce(key string, vals []string, emit func(string)) error { return nil }

func (t *reboundTask) Done() int { return t.n }

// eager folds into the factory per key group, under its mutex: guarded
// against its siblings, but not against another engine reading the totals
// of its own run of the same job.
type eager struct {
	mu sync.Mutex
	n  int
}

type eagerTask struct{ parent *eager }

func (e *eager) NewReduceTask() task { return &eagerTask{parent: e} }

func (t *eagerTask) Reduce(key string, vals []string, emit func(string)) error {
	t.parent.mu.Lock()
	t.parent.n += len(vals) // want "eagerTask.Reduce writes factory state t.parent.n; the factory is shared"
	t.parent.mu.Unlock()
	return nil
}

func (t *eagerTask) Done() int { return 0 }

// folded counts privately and folds into the factory once, in Done, under
// its mutex — the contract this one replaced. The lock changes nothing, and
// neither does going through a local alias of the factory.
type folded struct {
	mu     sync.Mutex
	counts []int
	tasks  int
}

type foldedTask struct {
	parent *folded
	n      int
}

func (f *folded) NewReduceTask() task { return &foldedTask{parent: f} }

func (t *foldedTask) Reduce(key string, vals []string, emit func(string)) error {
	t.n += len(vals)
	return nil
}

func (t *foldedTask) Done() int {
	p := t.parent
	p.mu.Lock()
	p.counts[0] += t.n // want "foldedTask.Done writes factory state p.counts\[...\]; the factory is shared"
	p.tasks++          // want "foldedTask.Done writes factory state p.tasks"
	p.mu.Unlock()
	return t.n
}

// atomicFold counts through sync/atomic: a call, not a write, and calls on
// the factory are not searched.
type atomicFold struct{ n atomic.Int64 }

type atomicTask struct {
	parent *atomicFold
	n      int64
}

func (a *atomicFold) NewReduceTask() task { return &atomicTask{parent: a} }

func (t *atomicTask) Reduce(key string, vals []string, emit func(string)) error {
	t.n += int64(len(vals))
	return nil
}

func (t *atomicTask) Done() int {
	t.parent.n.Add(t.n)
	return int(t.n)
}

// mapper is what a map-task factory returns (mapreduce.Mapper in the real
// tree).
type mapper interface {
	Map(line string, emit func(k, v string)) error
}

// goodMap is the map-side exemplar: a fresh instance per call whose scratch
// is its own, reading its factory's wiring.
type goodMap struct{ sep byte }

type goodMapTask struct {
	parent  *goodMap
	scratch []byte
}

func (g *goodMap) Map(line string, emit func(k, v string)) error {
	t := g.NewMapTask()
	return t.Map(line, emit)
}

func (g *goodMap) NewMapTask() mapper { return &goodMapTask{parent: g} }

func (t *goodMapTask) Map(line string, emit func(k, v string)) error {
	t.scratch = append(append(t.scratch[:0], line...), t.parent.sep)
	emit(string(t.scratch), "")
	return nil
}

// pooledMap hands every map task the one instance it keeps.
type pooledMap struct{ inst *pooledMapTask }

type pooledMapTask struct{ scratch []byte }

func (p *pooledMap) Map(line string, emit func(k, v string)) error { return nil }

func (p *pooledMap) NewMapTask() mapper {
	return p.inst // want "pooledMap.NewMapTask returns a value it did not just create"
}

func (t *pooledMapTask) Map(line string, emit func(k, v string)) error { return nil }

// sharedScratchMap keeps its scratch on the factory: every sibling task
// decodes into the same row.
type sharedScratchMap struct{ scratch []byte }

type sharedScratchTask struct{ parent *sharedScratchMap }

func (s *sharedScratchMap) Map(line string, emit func(k, v string)) error { return nil }

func (s *sharedScratchMap) NewMapTask() mapper { return &sharedScratchTask{parent: s} }

func (t *sharedScratchTask) Map(line string, emit func(k, v string)) error {
	t.parent.scratch = append(t.parent.scratch[:0], line...) // want "sharedScratchTask.Map writes factory state t.parent.scratch; the factory is shared"
	return nil
}
