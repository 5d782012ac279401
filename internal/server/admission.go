package server

import (
	"errors"
	"sync"
	"time"

	"ysmart/internal/obs"
)

// Admission errors.
var (
	// ErrQueueFull rejects a query when the FIFO wait queue is at capacity
	// (SQLSTATE 53300 on the wire).
	ErrQueueFull = errors.New("admission queue full")
	// ErrQueryTimeout fails a query whose deadline expired while it was
	// waiting for a slot or running (SQLSTATE 57014 on the wire).
	ErrQueryTimeout = errors.New("query timeout expired")
	// ErrDraining fails queries arriving, waiting or running during graceful
	// shutdown (SQLSTATE 57P01 on the wire).
	ErrDraining = errors.New("server is draining")
)

// Admission is the server's load shield: at most maxInflight queries
// execute at once, up to maxQueued more wait in strict FIFO order, and a
// waiter whose per-query deadline expires (or that is still queued when the
// server drains) is rejected without ever running. It is safe for
// concurrent use.
//
// Metrics land in the registry as ysmart_server_inflight and
// ysmart_server_queue_depth gauges, the ysmart_server_admission_wait_seconds
// histogram (every admitted query, including zero-wait fast paths), and
// ysmart_server_admission_rejected_total{reason=...} counters.
type Admission struct {
	reg *obs.Registry

	mu        sync.Mutex
	max       int
	maxQueued int
	inflight  int
	queue     []*waiter // FIFO: queue[0] is granted first
	draining  bool
	idle      chan struct{} // closed when draining and inflight == 0
}

// waiter is one queued acquisition; grant is closed with granted set by the
// releasing goroutine, or the waiter gives up and marks itself abandoned.
type waiter struct {
	grant     chan struct{}
	abandoned bool
}

// NewAdmission builds a controller admitting maxInflight concurrent
// queries (< 1 means 1) with a wait queue of maxQueued (< 0 means 0:
// immediate rejection when saturated). The registry may be nil.
func NewAdmission(maxInflight, maxQueued int, reg *obs.Registry) *Admission {
	if maxInflight < 1 {
		maxInflight = 1
	}
	if maxQueued < 0 {
		maxQueued = 0
	}
	return &Admission{max: maxInflight, maxQueued: maxQueued, reg: reg, idle: make(chan struct{})}
}

// Acquire blocks until a slot is granted, the deadline expires, or the
// controller drains. A zero deadline means wait forever. On success the
// returned release function must be called when the query's run ends,
// however it ends; calls after the first do nothing.
func (a *Admission) Acquire(deadline time.Time) (release func(), err error) {
	start := time.Now()
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		a.reject("draining")
		return nil, ErrDraining
	}
	if a.inflight < a.max {
		a.inflight++
		a.gauges()
		a.mu.Unlock()
		a.observeWait(0)
		return a.releaseFunc(), nil
	}
	if len(a.queue) >= a.maxQueued {
		a.mu.Unlock()
		a.reject("queue_full")
		return nil, ErrQueueFull
	}
	w := &waiter{grant: make(chan struct{})}
	a.queue = append(a.queue, w)
	a.gauges()
	a.mu.Unlock()

	var timeout <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-w.grant:
		if w.abandoned {
			// Drain closed the grant channel without admitting us.
			a.reject("draining")
			return nil, ErrDraining
		}
		a.observeWait(time.Since(start).Seconds())
		return a.releaseFunc(), nil
	case <-timeout:
		a.mu.Lock()
		select {
		case <-w.grant:
			// The grant raced the timer; we own a slot after all.
			if !w.abandoned {
				a.mu.Unlock()
				a.observeWait(time.Since(start).Seconds())
				return a.releaseFunc(), nil
			}
			a.mu.Unlock()
			a.reject("draining")
			return nil, ErrDraining
		default:
		}
		a.unqueue(w)
		a.gauges()
		a.mu.Unlock()
		a.reject("timeout")
		return nil, ErrQueryTimeout
	}
}

// releaseFunc builds the exactly-once release closure for one admitted
// query.
func (a *Admission) releaseFunc() func() {
	var once sync.Once
	return func() { once.Do(a.release) }
}

// release hands the slot to the queue head, or retires it.
func (a *Admission) release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for len(a.queue) > 0 {
		w := a.queue[0]
		a.queue = a.queue[1:]
		close(w.grant) // admitted: the slot transfers, inflight unchanged
		a.gauges()
		return
	}
	a.inflight--
	a.gauges()
	if a.draining && a.inflight == 0 {
		close(a.idle)
	}
}

// unqueue removes an abandoned waiter. Callers hold a.mu.
func (a *Admission) unqueue(w *waiter) {
	for i, q := range a.queue {
		if q == w {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			return
		}
	}
}

// Drain stops admitting: every queued waiter is rejected immediately, new
// Acquire calls fail with ErrDraining, and Drain blocks until the last
// in-flight query releases its slot (or the timeout elapses; timeout <= 0
// waits forever). It reports whether the controller reached idle.
func (a *Admission) Drain(timeout time.Duration) bool {
	a.mu.Lock()
	if !a.draining {
		a.draining = true
		for _, w := range a.queue {
			w.abandoned = true
			close(w.grant)
		}
		a.queue = nil
		a.gauges()
		if a.inflight == 0 {
			close(a.idle)
		}
	}
	idle := a.idle
	a.mu.Unlock()

	if timeout <= 0 {
		<-idle
		return true
	}
	select {
	case <-idle:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Inflight reports the currently executing query count.
func (a *Admission) Inflight() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight
}

// QueueDepth reports the current FIFO queue length.
func (a *Admission) QueueDepth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue)
}

// gauges refreshes the inflight/queue-depth gauges. Callers hold a.mu.
func (a *Admission) gauges() {
	a.reg.Set("ysmart_server_inflight", float64(a.inflight))
	a.reg.Set("ysmart_server_queue_depth", float64(len(a.queue)))
}

// observeWait records one admitted query's time-to-slot.
func (a *Admission) observeWait(seconds float64) {
	a.reg.Observe("ysmart_server_admission_wait_seconds", seconds)
}

// reject counts one rejected acquisition by reason.
func (a *Admission) reject(reason string) {
	a.reg.Add("ysmart_server_admission_rejected_total", 1, "reason", reason)
}
