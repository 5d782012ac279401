package mapreduce

import (
	"fmt"
	"math"

	"ysmart/internal/obs"
)

// maxTracedTasks caps per-task span emission. Jobs with more map or reduce
// tasks than this get a single "tasks-elided" instant per phase instead, so
// traces of large scaling sweeps stay loadable in Perfetto.
const maxTracedTasks = 256

// finishJob advances the simulated clock past a completed job and, when
// instrumented, emits its span hierarchy and records its counters. It runs
// on every job so traced and untraced executions share one clock path.
func (e *Engine) finishJob(j *Job, s *JobStats, start float64) {
	end := start + s.StartupTime + s.MapTime + s.ShuffleTime + s.ReduceTime
	if e.tracer.Enabled() {
		e.emitJobTrace(j, s, start)
	}
	e.recordJobMetrics(s)
	e.logJob(j, s, end)
	e.simNow = end
}

// logJob emits the job's structured lifecycle events: one job.done info
// line, warn lines for recovery activity and node deaths, and (at debug)
// one line per non-primary scheduled attempt.
func (e *Engine) logJob(j *Job, s *JobStats, end float64) {
	if !e.logger.Enabled(obs.LevelError) {
		return
	}
	e.logger.Info("job.done",
		obs.F("job", j.Name),
		obs.F("sim_s", end),
		obs.F("total_s", s.StartupTime+s.MapTime+s.ShuffleTime+s.ReduceTime),
		obs.F("map_s", s.MapTime),
		obs.F("shuffle_s", s.ShuffleTime),
		obs.F("reduce_s", s.ReduceTime),
		obs.F("map_tasks", int64(s.NumMapTasks)),
		obs.F("reduce_tasks", int64(s.NumReduceTasks)),
		obs.F("scan_bytes", s.MapInputBytes),
		obs.F("shuffle_bytes", s.ShuffleBytes),
		obs.F("output_rows", s.ReduceOutputRecords),
		obs.F("cost_drift", s.CostDrift()))
	if s.HasRecovery() {
		e.logger.Warn("job.recovery",
			obs.F("job", j.Name),
			obs.F("retries", int64(s.Retries())),
			obs.F("recomputed", int64(s.RecomputedMapTasks)),
			obs.F("speculative", int64(s.SpeculativeTasks)),
			obs.F("speculative_wins", int64(s.SpeculativeWins)))
	}
	if s.NodeFailures > 0 {
		e.logger.Warn("job.node_failures",
			obs.F("job", j.Name), obs.F("nodes", int64(s.NodeFailures)))
	}
	if !e.logger.Enabled(obs.LevelDebug) {
		return
	}
	for _, a := range s.Attempts {
		if a.Attempt == 0 && a.Outcome == OutcomeOK && !a.Speculative && !a.Recompute {
			continue // primary successful attempts are the uninteresting bulk
		}
		event := "task.retry"
		switch {
		case a.Speculative:
			event = "task.speculative"
		case a.Recompute:
			event = "task.recompute"
		}
		e.logger.Debug(event,
			obs.F("job", j.Name),
			obs.F("phase", a.Phase),
			obs.F("task", int64(a.Task)),
			obs.F("attempt", int64(a.Attempt)),
			obs.F("node", int64(a.Node)),
			obs.F("outcome", a.Outcome),
			obs.F("start_s", a.Start),
			obs.F("dur_s", a.Dur))
	}
}

// emitJobTrace emits the job ⊇ phase ⊇ wave ⊇ task span hierarchy plus the
// DFS replication and CMF dispatch instants for one job.
func (e *Engine) emitJobTrace(j *Job, s *JobStats, start float64) {
	track := "job:" + j.Name
	total := s.StartupTime + s.MapTime + s.ShuffleTime + s.ReduceTime
	e.tracer.Emit(obs.SpanEvent("job", j.Name, track, start, total,
		obs.F("map_tasks", int64(s.NumMapTasks)),
		obs.F("reduce_tasks", int64(s.NumReduceTasks)),
		obs.F("map_input_records", s.MapInputRecords),
		obs.F("map_input_bytes", s.MapInputBytes),
		obs.F("map_output_records", s.MapOutputRecords),
		obs.F("shuffle_bytes", s.ShuffleBytes),
		obs.F("reduce_groups", s.ReduceGroups),
		obs.F("output_records", s.ReduceOutputRecords),
		obs.F("output_bytes", s.ReduceOutputBytes)))

	faulty := len(s.Attempts) > 0
	t := start
	if s.StartupTime > 0 {
		e.tracer.Emit(obs.SpanEvent("phase", "startup", track, t, s.StartupTime))
		t += s.StartupTime
	}
	e.tracer.Emit(obs.SpanEvent("phase", "map", track, t, s.MapTime,
		obs.F("tasks", int64(s.NumMapTasks)),
		obs.F("bottleneck", s.MapBottleneck)))
	if !faulty {
		e.emitWaves(track, "map", t, s.MapTime, s.NumMapTasks, int(e.cluster.mapSlots()))
	}
	t += s.MapTime

	if !s.MapOnly {
		e.tracer.Emit(obs.SpanEvent("phase", "shuffle", track, t, s.ShuffleTime,
			obs.F("bytes", s.ShuffleBytes)))
		t += s.ShuffleTime
		e.tracer.Emit(obs.SpanEvent("phase", "reduce", track, t, s.ReduceTime,
			obs.F("tasks", int64(s.NumReduceTasks)),
			obs.F("groups", s.ReduceGroups),
			obs.F("bottleneck", s.ReduceBottleneck)))
		if !faulty {
			e.emitWaves(track, "reduce", t, s.ReduceTime, s.NumReduceTasks, int(e.cluster.reduceSlots()))
		}
		t += s.ReduceTime
	}
	if faulty {
		e.emitAttempts(track, s, start, t)
	}

	// Output replication to the DFS completes with the final phase.
	if repl := e.cluster.Cost.HDFSReplication - 1; repl > 0 {
		e.tracer.Emit(obs.InstantEvent("dfs", "dfs.replicate", "dfs", t,
			obs.F("path", j.Output),
			obs.F("replicas", int64(repl)),
			obs.F("bytes", s.ReduceOutputBytes)))
	}

	// Per-merged-operator dispatch counts from a CMF common reducer.
	for _, d := range s.Dispatch {
		e.tracer.Emit(obs.InstantEvent("cmf", "cmf.dispatch", track, t,
			obs.F("op", d.Op),
			obs.F("in_rows", d.InRows),
			obs.F("out_rows", d.OutRows)))
	}
}

// emitWaves emits wave spans (and task spans, when few enough) for one
// phase. Task slots fill in waves of `slots`; each wave gets an equal share
// of the phase time, matching how the cost model charges per-wave overhead.
func (e *Engine) emitWaves(track, phase string, start, dur float64, tasks, slots int) {
	if tasks <= 0 || dur <= 0 {
		return
	}
	if slots < 1 {
		slots = 1
	}
	waves := int(math.Ceil(float64(tasks) / float64(slots)))
	waveDur := dur / float64(waves)
	per := tasks / waves
	rem := tasks % waves
	taskIdx := 0
	for w := 0; w < waves; w++ {
		inWave := per
		if w < rem {
			inWave++
		}
		wStart := start + float64(w)*waveDur
		e.tracer.Emit(obs.SpanEvent("wave", fmt.Sprintf("%s-wave-%d", phase, w), track,
			wStart, waveDur, obs.F("tasks", int64(inWave))))
		if tasks > maxTracedTasks {
			continue
		}
		for i := 0; i < inWave; i++ {
			// The worker id is the simulated slot the task occupies (its
			// index within the wave) — deterministic by construction. Host
			// goroutine identity deliberately never reaches traces: it would
			// differ run to run and break byte-identical replay.
			e.tracer.Emit(obs.SpanEvent("task", fmt.Sprintf("%s-task-%d", phase, taskIdx), track,
				wStart, waveDur, obs.F("worker", int64(i))))
			taskIdx++
		}
	}
	if tasks > maxTracedTasks {
		e.tracer.Emit(obs.InstantEvent("task", "tasks-elided", track, start,
			obs.F("phase", phase), obs.F("tasks", int64(tasks))))
	}
}

// emitAttempts emits the event-level schedule of a fault-injected job:
// one span per task attempt (cat "attempt", "retry" for relaunches and
// recomputes, "spec" for speculative backups) plus a "fault" instant for
// every node death inside the job's span. Ordinary first attempts respect
// the maxTracedTasks cap; recovery spans are always emitted because they
// are rare and are the point of the trace.
func (e *Engine) emitAttempts(track string, s *JobStats, start, end float64) {
	elided := make(map[string]bool)
	for _, a := range s.Attempts {
		cat := "attempt"
		switch {
		case a.Speculative:
			cat = "spec"
		case a.Attempt > 0 || a.Outcome != OutcomeOK:
			cat = "retry"
		}
		phaseTasks := s.NumMapTasks
		if a.Phase == "reduce" {
			phaseTasks = s.NumReduceTasks
		}
		if cat == "attempt" && phaseTasks > maxTracedTasks {
			if !elided[a.Phase] {
				elided[a.Phase] = true
				e.tracer.Emit(obs.InstantEvent("task", "tasks-elided", track, a.Start,
					obs.F("phase", a.Phase), obs.F("tasks", int64(phaseTasks))))
			}
			continue
		}
		args := []obs.Field{
			obs.F("node", int64(a.Node)),
			obs.F("outcome", a.Outcome),
		}
		if a.Recompute {
			args = append(args, obs.F("recompute", "true"))
		}
		e.tracer.Emit(obs.SpanEvent(cat,
			fmt.Sprintf("%s-task-%d-a%d", a.Phase, a.Task, a.Attempt), track,
			a.Start, a.Dur, args...))
	}
	for _, nf := range e.cluster.Faults.NodeFailures {
		if nf.At >= start && nf.At <= end {
			e.tracer.Emit(obs.InstantEvent("fault", "node-failure", track, nf.At,
				obs.F("node", int64(nf.Node))))
		}
	}
}

// recordJobMetrics adds one job's counters to the registry (nothing when
// metrics are off).
func (e *Engine) recordJobMetrics(s *JobStats) {
	m := e.metrics
	m.Add("ysmart_engine_jobs_total", 1)
	m.Add("ysmart_engine_map_tasks_total", float64(s.NumMapTasks))
	m.Add("ysmart_engine_reduce_tasks_total", float64(s.NumReduceTasks))
	m.Add("ysmart_engine_map_input_records_total", float64(s.MapInputRecords))
	m.Add("ysmart_engine_map_input_bytes_total", float64(s.MapInputBytes))
	m.Add("ysmart_engine_map_output_records_total", float64(s.MapOutputRecords))
	m.Add("ysmart_engine_shuffle_bytes_total", float64(s.ShuffleBytes))
	m.Add("ysmart_engine_reduce_groups_total", float64(s.ReduceGroups))
	m.Add("ysmart_engine_reduce_output_records_total", float64(s.ReduceOutputRecords))
	m.Add("ysmart_engine_reduce_output_bytes_total", float64(s.ReduceOutputBytes))
	m.Add("ysmart_engine_sim_seconds_total", s.StartupTime+s.MapTime+s.ShuffleTime+s.ReduceTime)
	m.Add("ysmart_engine_phase_seconds_total", s.StartupTime, "phase", "startup")
	m.Add("ysmart_engine_phase_seconds_total", s.MapTime, "phase", "map")
	m.Add("ysmart_engine_phase_seconds_total", s.ShuffleTime, "phase", "shuffle")
	m.Add("ysmart_engine_phase_seconds_total", s.ReduceTime, "phase", "reduce")
	// Distribution families: how map/reduce durations, shuffle volume and
	// result cardinality spread across the jobs of a workload — the
	// ReStore-style statistics deciding which sub-plan outputs are worth
	// materializing.
	m.Observe("ysmart_job_map_seconds", s.MapTime)
	if !s.MapOnly {
		m.Observe("ysmart_job_reduce_seconds", s.ReduceTime)
		m.Observe("ysmart_job_shuffle_bytes", float64(s.ShuffleBytes))
	}
	m.Observe("ysmart_job_output_rows", float64(s.ReduceOutputRecords))
	// Cost-model drift: measured versus analytically predicted job time.
	// The totals reconstruct fleet-wide drift; the histogram shows how
	// drift spreads over jobs. It carries no job label: a long-running
	// server sees unboundedly many job names, and a series per name would
	// never be freed (the job's own drift is in its job.done event).
	m.Add("ysmart_costmodel_predicted_seconds_total", s.PredictedTime)
	m.Add("ysmart_costmodel_actual_seconds_total", s.StartupTime+s.MapTime+s.ShuffleTime+s.ReduceTime)
	m.Observe("ysmart_costmodel_drift_ratio", s.CostDrift())
	for _, d := range s.Dispatch {
		m.Add("ysmart_cmf_op_input_rows_total", float64(d.InRows), "op", d.Op)
		m.Add("ysmart_cmf_op_output_rows_total", float64(d.OutRows), "op", d.Op)
	}
	if e.faultsActive() {
		m.Add("ysmart_engine_task_retries_total", float64(s.MapTaskRetries), "phase", "map")
		m.Add("ysmart_engine_task_retries_total", float64(s.ReduceTaskRetries), "phase", "reduce")
		m.Add("ysmart_engine_recomputed_map_tasks_total", float64(s.RecomputedMapTasks))
		m.Add("ysmart_engine_speculative_tasks_total", float64(s.SpeculativeTasks))
		m.Add("ysmart_engine_speculative_wins_total", float64(s.SpeculativeWins))
		m.Add("ysmart_engine_node_failures_total", float64(s.NodeFailures))
	}
}
