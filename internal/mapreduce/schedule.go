package mapreduce

import (
	"fmt"

	"ysmart/internal/obs"
)

// This file is the event-level wave scheduler behind FaultPlan. Fault-free
// runs take their phase times straight from the cost model's phase bases
// (costJob); when a non-zero plan is attached the engine instead schedules
// every task attempt onto concrete slots and nodes, injects failures,
// node deaths and stragglers, launches speculative backups, and derives
// phase times from the resulting schedule. Per-task work is calibrated so
// a fault-free schedule reproduces the analytic phase times: each task's
// nominal duration is the phase base divided by its wave count, and every
// attempt pays the cost model's per-wave TaskOverhead.
//
// One routine (phaseSched.run) launches every attempt: primaries, retries,
// recomputes and speculative backups alike, the backup-only rules being
// branches of it. The attempt log it appends to is the single record of
// the schedule: the recovery counters in JobStats are read off it, and
// per-task state (launch count, failures, standing attempt) sits in one
// slice indexed by task, which the DFS re-reads of relaunched map tasks
// also read.

// slotPool tracks per-slot next-free times for one phase's slot class.
// Slot s lives on node s % nodes; a node death permanently retires its
// slots for any attempt that would start at or after the death.
type slotPool struct {
	free   []float64
	nodes  int
	deaths map[int]float64 // node -> death time (absolute)
}

func newSlotPool(slots, nodes int, start float64, deaths map[int]float64) *slotPool {
	if slots < 1 {
		slots = 1
	}
	if nodes < 1 {
		nodes = 1
	}
	free := make([]float64, slots)
	for i := range free {
		free[i] = start
	}
	return &slotPool{free: free, nodes: nodes, deaths: deaths}
}

// deathOf returns the death time of a slot's node.
func (p *slotPool) deathOf(slot int) (float64, bool) {
	d, ok := p.deaths[slot%p.nodes]
	return d, ok
}

// acquire picks the slot giving the earliest start >= ready on a node
// still alive at that start (ties go to the lowest slot index). ok is
// false when no surviving slot remains.
func (p *slotPool) acquire(ready float64) (slot int, start float64, ok bool) {
	best := -1
	var bestStart float64
	for s, f := range p.free {
		st := f
		if ready > st {
			st = ready
		}
		if d, dead := p.deathOf(s); dead && st >= d {
			continue
		}
		if best == -1 || st < bestStart {
			best, bestStart = s, st
		}
	}
	if best == -1 {
		return 0, 0, false
	}
	return best, bestStart, true
}

// taskState is one task's record within a phase.
type taskState struct {
	launches int  // attempts launched so far: the next attempt's index
	fails    int  // injected failures so far, capped at MaxAttempts-1
	out      int  // index into phaseSched.attempts of the attempt whose output stands
	slot     int  // the slot that attempt ran on
	backedUp bool // a speculative backup has been queued
}

// pendingEntry is one task execution waiting for a slot.
type pendingEntry struct {
	task        int
	ready       float64 // earliest start time
	seq         int     // enqueue order, the deterministic tie-breaker
	recompute   bool
	speculative bool // a backup racing the task's standing (straggling) attempt
}

// phaseSched schedules one phase (map or reduce) of one job under a fault
// plan. It is reused across recompute rounds of the same phase so slot
// state and attempt numbering carry over.
type phaseSched struct {
	plan     *FaultPlan
	spec     Speculation
	job      string
	phase    string
	taskDur  float64 // nominal work seconds per task, excluding overhead
	overhead float64
	pool     *slotPool

	attempts []TaskAttempt
	tasks    []taskState
	nextSeq  int
}

// initial sizes the per-task state and builds the pending list for n
// fresh tasks.
func (ps *phaseSched) initial(n int, ready float64) []pendingEntry {
	ps.tasks = make([]taskState, n)
	entries := make([]pendingEntry, n)
	for i := range entries {
		entries[i] = ps.entry(i, ready, false, false)
	}
	return entries
}

// entry numbers one pending execution.
func (ps *phaseSched) entry(task int, ready float64, recompute, speculative bool) pendingEntry {
	ps.nextSeq++
	return pendingEntry{task: task, ready: ready, seq: ps.nextSeq - 1,
		recompute: recompute, speculative: speculative}
}

// end returns the phase end: the latest attempt end, floored at start.
func (ps *phaseSched) end(start float64) float64 {
	end := start
	for i := range ps.attempts {
		if e := ps.attempts[i].Start + ps.attempts[i].Dur; e > end {
			end = e
		}
	}
	return end
}

// run drains the pending list, launching every attempt — primaries,
// retries, recomputes and the speculative backups they spawn — onto the
// slot pool. It returns once every task has completed, and errors only
// when no surviving slot exists for a required (non-speculative) attempt.
func (ps *phaseSched) run(pending []pendingEntry) error {
	for len(pending) > 0 {
		// Pop the entry with the smallest (ready, task, seq).
		best := 0
		for i := 1; i < len(pending); i++ {
			a, b := pending[i], pending[best]
			if a.ready < b.ready || (a.ready == b.ready && (a.task < b.task ||
				(a.task == b.task && a.seq < b.seq))) {
				best = i
			}
		}
		e := pending[best]
		pending = append(pending[:best], pending[best+1:]...)
		ts := &ps.tasks[e.task]

		slot, start, ok := ps.pool.acquire(e.ready)
		var origEnd float64
		if e.speculative {
			// A backup that cannot start before its original finishes is
			// silently dropped.
			orig := ps.attempts[ts.out]
			origEnd = orig.Start + orig.Dur
			if !ok || start >= origEnd {
				continue
			}
		} else if !ok {
			return fmt.Errorf("%s phase of %s: no surviving nodes to run task %d", ps.phase, ps.job, e.task)
		}
		attemptIdx := ts.launches
		ts.launches++

		slow := ps.slowFactor(e.task, attemptIdx)
		dur := ps.overhead + ps.taskDur*slow
		outcome := OutcomeOK
		// Only the original line of attempts counts toward the failure cap,
		// so a backup can fail whatever its task's history.
		if ps.plan.TaskFailureProb > 0 && (e.speculative || ts.fails < ps.plan.maxAttempts()-1) &&
			ps.plan.roll("fail", ps.job, ps.phase, e.task, attemptIdx) < ps.plan.TaskFailureProb {
			frac := 0.25 + 0.5*ps.plan.roll("frac", ps.job, ps.phase, e.task, attemptIdx)
			dur = ps.overhead + ps.taskDur*slow*frac
			outcome = OutcomeFailed
		}
		if d, dead := ps.pool.deathOf(slot); dead && start+dur > d {
			dur = d - start
			outcome = OutcomeNodeLost
		}
		if e.speculative && start+dur >= origEnd {
			// The original finishes first: the backup is killed then.
			outcome = OutcomeKilled
			dur = origEnd - start
		}
		end := start + dur
		ps.pool.free[slot] = end
		ps.attempts = append(ps.attempts, TaskAttempt{
			Phase: ps.phase, Task: e.task, Attempt: attemptIdx,
			Node: slot % ps.pool.nodes, Start: start, Dur: dur,
			Outcome: outcome, Speculative: e.speculative, Recompute: e.recompute,
		})

		switch {
		case outcome == OutcomeOK && e.speculative:
			// The backup won the race: the original is killed, freeing its
			// slot early.
			orig := &ps.attempts[ts.out]
			orig.Outcome = OutcomeKilled
			orig.Dur = end - orig.Start
			if ps.pool.free[ts.slot] > end {
				ps.pool.free[ts.slot] = end
			}
			ts.out, ts.slot = len(ps.attempts)-1, slot
		case outcome == OutcomeOK:
			ts.out, ts.slot = len(ps.attempts)-1, slot
			if ps.spec.Enabled && slow >= slowdownThreshold && !ts.backedUp {
				ts.backedUp = true
				pending = append(pending, ps.entry(e.task, start+ps.overhead+ps.taskDur, e.recompute, true))
			}
		case !e.speculative:
			// Failed or node-lost: relaunch from the failure instant. A
			// failed backup is not relaunched; its original still runs.
			if outcome == OutcomeFailed {
				ts.fails++
			}
			pending = append(pending, ps.entry(e.task, end, e.recompute, false))
		}
	}
	return nil
}

// slowFactor draws the straggler multiplier for one attempt.
func (ps *phaseSched) slowFactor(task, attempt int) float64 {
	if ps.plan.StragglerProb > 0 &&
		ps.plan.roll("straggle", ps.job, ps.phase, task, attempt) < ps.plan.StragglerProb {
		return ps.plan.stragglerFactor()
	}
	return 1
}

// recomputeLost relaunches map tasks whose completed output died with its
// node: any task whose standing attempt ran on a node whose death falls
// inside (lo, hi]. It returns the number of tasks relaunched this round.
func (ps *phaseSched) recomputeLost(lo, hi float64) (int, error) {
	var entries []pendingEntry
	for task, ts := range ps.tasks {
		d, dead := ps.pool.deaths[ps.attempts[ts.out].Node]
		if !dead || d <= lo || d > hi {
			continue
		}
		entries = append(entries, ps.entry(task, d, true, false))
	}
	if len(entries) == 0 {
		return 0, nil
	}
	return len(entries), ps.run(entries)
}

// ---------------------------------------------------------------------------
// Fault-path costing
// ---------------------------------------------------------------------------

// faultsActive reports whether the engine must schedule task attempts. A nil
// or zero plan takes phase times from the bases directly, which makes
// fault-free runs byte-identical to a plan-free engine.
func (e *Engine) faultsActive() bool {
	return e.cluster.Faults != nil && !e.cluster.Faults.IsZero()
}

// scheduleJob times a job under the cluster's FaultPlan: the phase bases
// become per-task durations, every task attempt is scheduled, and every
// extra map launch reads its input again from the DFS replicas. No attempt
// runs user code: the primary pass's output and counts stand.
func (e *Engine) scheduleJob(j *Job, s *JobStats, b phaseBases, tasks []mapTask) error {
	cl := e.cluster
	cm := cl.Cost
	plan := cl.Faults
	deaths := plan.deathTimes()

	// The fault-free analytic equivalent of this job: what the cost model
	// predicted before recovery stretched the schedule. (Summed term by
	// term, not phase by phase as costJob does: the two can differ in the
	// last bit, and recorded drift ratios pin this one.)
	s.PredictedTime = cm.JobStartup +
		b.mapBase + b.mapWaves*cm.TaskOverhead +
		b.shuffle +
		b.redBase + b.redWaves*cm.TaskOverhead
	mapStart := e.simNow + s.StartupTime

	mp := &phaseSched{plan: plan, spec: cl.Speculation, job: j.Name, phase: "map",
		taskDur: b.mapBase / b.mapWaves, overhead: cm.TaskOverhead,
		pool: newSlotPool(int(cl.mapSlots()), cl.Nodes, mapStart, deaths)}
	if err := mp.run(mp.initial(s.NumMapTasks, mapStart)); err != nil {
		return err
	}
	if s.MapOnly {
		// Map output goes straight to the replicated DFS, so like reduce
		// output it survives node deaths; only in-flight attempts are killed.
		mapEnd := mp.end(mapStart)
		s.MapTime = mapEnd - mapStart
		e.fillFaultStats(s, mp, nil, e.simNow, mapEnd)
		return e.rereadMapInputs(j, tasks, mp)
	}

	// ----- Map phase: in-phase recompute of output lost to node deaths.
	for {
		n, err := mp.recomputeLost(mapStart, mp.end(mapStart))
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		s.RecomputedMapTasks += n
		e.logger.Warn("map.recompute",
			obs.F("job", j.Name), obs.F("tasks", int64(n)),
			obs.F("reason", "map output lost to node death"),
			obs.F("sim_s", mp.end(mapStart)))
	}
	mapEnd := mp.end(mapStart)

	// ----- Shuffle: node deaths in the shuffle window lose map output that
	// the reducers have not fetched yet; recovery extends the barrier.
	shuffleEnd := mapEnd + b.shuffle
	for {
		n, err := mp.recomputeLost(mapEnd, shuffleEnd)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		s.RecomputedMapTasks += n
		e.logger.Warn("map.recompute",
			obs.F("job", j.Name), obs.F("tasks", int64(n)),
			obs.F("reason", "unfetched map output lost during shuffle"),
			obs.F("sim_s", shuffleEnd))
		if end := mp.end(mapStart); end > shuffleEnd {
			shuffleEnd = end
		}
	}

	// ----- Reduce phase: completed output lives on the DFS, so deaths only
	// kill in-flight attempts.
	rp := &phaseSched{plan: plan, spec: cl.Speculation, job: j.Name, phase: "reduce",
		taskDur: b.redBase / b.redWaves, overhead: cm.TaskOverhead,
		pool: newSlotPool(int(cl.reduceSlots()), cl.Nodes, shuffleEnd, deaths)}
	if err := rp.run(rp.initial(s.NumReduceTasks, shuffleEnd)); err != nil {
		return err
	}
	reduceEnd := rp.end(shuffleEnd)

	s.MapTime = mapEnd - mapStart
	s.ShuffleTime = shuffleEnd - mapEnd
	s.ReduceTime = reduceEnd - shuffleEnd
	e.fillFaultStats(s, mp, rp, e.simNow, reduceEnd)
	return e.rereadMapInputs(j, tasks, mp)
}

// fillFaultStats moves the schedulers' attempt logs into JobStats and reads
// the recovery counters off them: a non-speculative attempt that failed or
// lost its node was relaunched, and a speculative one that completed won
// its race.
func (e *Engine) fillFaultStats(s *JobStats, mp, rp *phaseSched, jobStart, jobEnd float64) {
	s.Attempts = append(s.Attempts, mp.attempts...)
	if rp != nil {
		s.Attempts = append(s.Attempts, rp.attempts...)
	}
	for _, a := range s.Attempts {
		switch {
		case a.Speculative:
			s.SpeculativeTasks++
			if a.Outcome == OutcomeOK {
				s.SpeculativeWins++
			}
		case a.Outcome == OutcomeFailed || a.Outcome == OutcomeNodeLost:
			if a.Phase == "map" {
				s.MapTaskRetries++
			} else {
				s.ReduceTaskRetries++
			}
		}
	}
	for _, nf := range e.cluster.Faults.NodeFailures {
		if nf.At >= jobStart && nf.At <= jobEnd {
			s.NodeFailures++
		}
	}
}

// rereadMapInputs charges the DFS for every map launch beyond each task's
// first: a retry, recompute or speculative backup reads its task's input
// again from the surviving replicas. The reads run on the driver in
// ascending task order, so their trace instants and read counters keep one
// deterministic sequence. The user code is not run again: the first
// launch's output stands, and the attempt log already charges every
// launch's simulated seconds.
func (e *Engine) rereadMapInputs(j *Job, tasks []mapTask, mp *phaseSched) error {
	for task, ts := range mp.tasks {
		if task >= len(tasks) {
			break // phantom cost-model task with no data of its own
		}
		path := j.Inputs[tasks[task].in].Path
		for n := ts.launches - 1; n > 0; n-- {
			if _, err := e.dfs.Read(path); err != nil {
				return fmt.Errorf("map retry %s: %w", path, err)
			}
		}
	}
	return nil
}
