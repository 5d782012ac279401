// Package kitchen exercises every ysmart-vet diagnostic kind with each
// finding silenced by a lint:ignore directive — both the trailing and
// the standalone-preceding-line forms. The driver test asserts the
// suite reports nothing here, proving the escape hatch works for every
// analyzer.
package kitchen

import (
	"math/rand"
	"sync"
	"time"
)

func clock() time.Time {
	// lint:ignore determinism exercising the standalone escape hatch
	return time.Now()
}

func roll() int {
	return rand.Intn(6) // lint:ignore determinism deliberate for the corpus
}

func emitMap(m map[string]int, emit func(string)) {
	for k := range m { // lint:ignore determinism deliberate for the corpus
		emit(k)
	}
}

// viaClock exercises the interprocedural determinism diagnostic: the
// ignore on clock's own line silences the report there, but the base
// fact still propagates to callers, so this call needs its own.
func viaClock() time.Time {
	return clock() // lint:ignore determinism deliberate for the corpus
}

// oracle has no in-module implementation; the unresolvable-dispatch
// diagnostic fires at the call.
type oracle interface{ Tell() int }

func consult(o oracle) int {
	return o.Tell() // lint:ignore determinism deliberate for the corpus
}

type pool struct{ n int }

func (p *pool) forEachTask(n int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

func gather(p *pool, lines []string) error {
	var out []string
	return p.forEachTask(len(lines), func(i int) error {
		// lint:ignore sharecheck exercising the standalone escape hatch
		out = append(out, lines[i])
		return nil
	})
}

type folder struct {
	mu sync.Mutex
	n  int
}

type folderTask struct{ parent *folder }

func (f *folder) NewReduceTask() *folderTask { return &folderTask{parent: f} }

func (t *folderTask) Reduce(key string, vals []string, emit func(string)) error {
	t.parent.n += len(vals) // lint:ignore concreduce deliberate for the corpus
	return nil
}

func (t *folderTask) Done() {}
