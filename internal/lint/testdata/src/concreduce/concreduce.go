// Package concreduce is the golden corpus for the concreduce analyzer:
// a type with a NewReduceTask method hands the engine one private reducer
// instance per reduce task, so the method must return a value it just
// created, and the instance may write its parent — the one object sibling
// tasks share — only in Done, with the parent's mutex held (helpers
// included).
package concreduce

import (
	"sync"
	"sync/atomic"
)

// task is what a factory returns (mapreduce.ReduceTask in the real tree).
type task interface {
	Reduce(key string, vals []string, emit func(string)) error
	Done()
}

// good is the exemplar: a fresh instance per call, private counts, one
// mutex-held fold in Done.
type good struct {
	mu sync.Mutex
	n  int
}

type goodTask struct {
	parent *good
	n      int
	buf    []byte
}

func (g *good) NewReduceTask() task { return &goodTask{parent: g} }

func (t *goodTask) Reduce(key string, vals []string, emit func(string)) error {
	t.n += len(vals)
	t.buf = append(t.buf[:0], key...)
	emit(string(t.buf))
	return nil
}

func (t *goodTask) Done() {
	p := t.parent
	p.mu.Lock()
	p.n += t.n
	p.mu.Unlock()
	t.n = 0
	t.parent = nil // rebinding the instance's own field is private
}

// viaLocal builds the instance in a local first; just as fresh.
type viaLocal struct {
	mu sync.Mutex
	n  int
}

type viaLocalTask struct{ parent *viaLocal }

func (v *viaLocal) NewReduceTask() task {
	t := &viaLocalTask{}
	t.parent = v
	return t
}

func (t *viaLocalTask) Reduce(key string, vals []string, emit func(string)) error { return nil }

func (t *viaLocalTask) Done() {}

// cached hands every task the same instance.
type cached struct {
	mu   sync.Mutex
	inst *cachedTask
}

type cachedTask struct{ n int }

func (c *cached) NewReduceTask() task {
	return c.inst // want "cached.NewReduceTask returns a value it did not just create"
}

func (t *cachedTask) Reduce(key string, vals []string, emit func(string)) error { return nil }

func (t *cachedTask) Done() {}

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

func (t *reboundTask) Done() {}

// eager folds into the parent per key group — the per-key mutex fold the
// contract replaced — instead of once in Done.
type eager struct {
	mu sync.Mutex
	n  int
}

type eagerTask struct{ parent *eager }

func (e *eager) NewReduceTask() task { return &eagerTask{parent: e} }

func (t *eagerTask) Reduce(key string, vals []string, emit func(string)) error {
	t.parent.mu.Lock()
	t.parent.n += len(vals) // want "eagerTask.Reduce writes parent state t.parent.n; sibling instances share the parent"
	t.parent.mu.Unlock()
	return nil
}

func (t *eagerTask) Done() {}

// racy folds in Done but forgets the lock; the write goes through a local
// alias of the parent, which is still the parent.
type racy struct {
	mu     sync.Mutex
	counts []int
}

type racyTask struct {
	parent *racy
	n      int
}

func (r *racy) NewReduceTask() task { return &racyTask{parent: r} }

func (t *racyTask) Reduce(key string, vals []string, emit func(string)) error {
	t.n += len(vals)
	return nil
}

func (t *racyTask) Done() {
	p := t.parent
	p.counts[0] += t.n // want "racyTask.Done writes parent state p.counts\[...\] with no mutex held"
}

// lazy hides the unguarded write behind a parent method; the diagnostic
// names the path. guardedFold locks for itself and passes.
type lazy struct {
	mu sync.Mutex
	n  int
}

func (l *lazy) fold(n int) { l.n += n }

func (l *lazy) guardedFold(n int) {
	l.mu.Lock()
	l.n += n
	l.mu.Unlock()
}

type lazyTask struct {
	parent *lazy
	n      int
}

func (l *lazy) NewReduceTask() task { return &lazyTask{parent: l} }

func (t *lazyTask) Reduce(key string, vals []string, emit func(string)) error { return nil }

func (t *lazyTask) Done() {
	t.parent.guardedFold(t.n)
	t.parent.fold(t.n) // want "lazyTask.Done calls concreduce.lazy.fold on its parent with no lock held, which writes receiver state l.n"
}

// atomicFold counts through sync/atomic: a call, not a write.
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

func (t *atomicTask) Done() { t.parent.n.Add(t.n) }
