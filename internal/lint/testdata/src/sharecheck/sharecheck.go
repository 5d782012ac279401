// Package sharecheck is the golden corpus for the sharecheck analyzer:
// closures run concurrently by forEachTask (or spawned with go) may
// write captured state only into their own task-index slot or
// atomically — including through helper calls, resolved over the call
// graph. A mutex is not a sanction (the guarded write is race-free but
// lands in the order tasks ran); such a write carries a written
// lint:ignore. The clean functions pin down the sanctioned patterns,
// including the ownership rule that writes to objects a task created
// itself are private.
package sharecheck

import (
	"sync"
	"sync/atomic"
)

// engine mimics the mapreduce engine's worker-pool surface: the corpus
// analyzer triggers on the forEachTask name, not the real type.
type engine struct {
	mu sync.Mutex
	n  int
}

func (e *engine) forEachTask(n int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

var total int

// capturedAppend is the seeded race from the acceptance criteria: an
// unguarded captured append inside a forEachTask closure.
func capturedAppend(e *engine, lines []string) error {
	var out []string
	return e.forEachTask(len(lines), func(i int) error {
		out = append(out, lines[i]) // want "unguarded write to captured variable out"
		return nil
	})
}

func packageCounter(e *engine, n int) error {
	return e.forEachTask(n, func(i int) error {
		total++ // want "unguarded write to package variable total"
		return nil
	})
}

func (e *engine) receiverWrite(k int) error {
	return e.forEachTask(k, func(i int) error {
		e.n++ // want "unguarded write to receiver state e.n"
		return nil
	})
}

func derefWrite(e *engine, p *int, n int) error {
	return e.forEachTask(n, func(i int) error {
		*p = i // want "unguarded write to memory behind captured pointer p"
		return nil
	})
}

// slotWrites is the sanctioned output pattern: each task owns slot i.
func slotWrites(e *engine, lines []string) error {
	outs := make([][]string, len(lines))
	return e.forEachTask(len(lines), func(i int) error {
		outs[i] = append(outs[i], lines[i])
		return nil
	})
}

// boundBody proves the analyzer resolves a task bound to a local
// variable before the forEachTask call; the slot write inside is clean.
func boundBody(e *engine, lines []string) error {
	outs := make([]string, len(lines))
	task := func(i int) error {
		outs[i] = lines[i]
		return nil
	}
	return e.forEachTask(len(lines), task)
}

// opaque passes a task body the analyzer cannot see; assume-shared.
func opaque(e *engine, fn func(int) error) error {
	return e.forEachTask(4, fn) // want "task body passed to forEachTask is not statically visible"
}

// mutexGuarded: the lock makes the write race-free, not independent of
// the order tasks ran in, so it is flagged like any captured write.
func mutexGuarded(e *engine, n int) error {
	var mu sync.Mutex
	count := 0
	return e.forEachTask(n, func(i int) error {
		mu.Lock()
		count++ // want "unguarded write to captured variable count"
		mu.Unlock()
		return nil
	})
}

// mutexGuardedAnnotated: a body that genuinely needs the guarded write
// says why.
func mutexGuardedAnnotated(e *engine, n int) error {
	var mu sync.Mutex
	count := 0
	return e.forEachTask(n, func(i int) error {
		mu.Lock()
		count++ // lint:ignore sharecheck a commutative tally, read only after the join
		mu.Unlock()
		return nil
	})
}

func atomicCounter(e *engine, n int) error {
	var count atomic.Int64
	return e.forEachTask(n, func(i int) error {
		count.Add(1)
		return nil
	})
}

func bumpTotal() { total++ }

// viaHelper reaches the shared write through a call; the diagnostic
// carries the offending path.
func viaHelper(e *engine, n int) error {
	return e.forEachTask(n, func(i int) error {
		bumpTotal() // want "parallel task body calls sharecheck.bumpTotal, which writes package variable total"
		return nil
	})
}

func (e *engine) bumpLocked() {
	e.mu.Lock()
	e.n++
	e.mu.Unlock()
}

// viaGuardedHelper: the helper locks around its write, which is still a
// write to state every task shares.
func viaGuardedHelper(e *engine, n int) error {
	return e.forEachTask(n, func(i int) error {
		e.bumpLocked() // want "parallel task body calls sharecheck.engine.bumpLocked, which writes receiver state e.n"
		return nil
	})
}

func viaGuardedHelperAnnotated(e *engine, n int) error {
	return e.forEachTask(n, func(i int) error {
		e.bumpLocked() // lint:ignore sharecheck a commutative tally, read only after the join
		return nil
	})
}

type acc struct{ n int }

func (a *acc) add(v int) { a.n += v }

// ownedAccumulator: the task created a itself, so add's receiver writes
// are private to the task — the ownership rule.
func ownedAccumulator(e *engine, n int) error {
	return e.forEachTask(n, func(i int) error {
		a := &acc{}
		a.add(i)
		return nil
	})
}

// sharedAccumulator: the same method on a captured object is a race.
func sharedAccumulator(e *engine, a *acc, n int) error {
	return e.forEachTask(n, func(i int) error {
		a.add(i) // want "parallel task body calls sharecheck.acc.add, which writes receiver state a.n"
		return nil
	})
}

type ghost interface{ Haunt() }

// viaGhost: no in-module type implements ghost, so the dispatch is
// unresolvable and the conservative assume-shared default fires. (The
// determinism analyzer reports the same site as unresolvable too.)
func viaGhost(e *engine, g ghost, n int) error {
	return e.forEachTask(n, func(i int) error {
		g.Haunt() // want "unresolvable"
		return nil
	})
}

// goSpawn: go-spawned bodies are parallel task regions with no task
// index; captured writes are flagged.
func goSpawn(n int) {
	done := make([]bool, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			done[0] = true // want "unguarded write to captured variable done"
		}()
	}
	wg.Wait()
}

// goNamed: a named function spawned directly is searched the same way.
func goNamed() {
	go bumpTotal() // want "goroutine body sharecheck.bumpTotal writes package variable total"
}
