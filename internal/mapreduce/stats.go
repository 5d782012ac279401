package mapreduce

import (
	"fmt"
	"strings"

	"ysmart/internal/obs"
)

// JobStats records the measured counters and simulated times of one job.
// Counters are raw (unscaled); times include the cluster's DataScale.
type JobStats struct {
	Name string

	// Raw counters measured during execution.
	MapInputRecords int64
	MapInputBytes   int64
	// MapRecordsFiltered counts input lines a mapper dropped early with
	// ErrFiltered (zero when no early filters are installed).
	// Filtered lines are included in MapInputRecords/Bytes — the scan still
	// reads them — but pay only a fraction of the per-record map CPU.
	MapRecordsFiltered int64
	MapOutputRecords   int64 // after the combiner, if any
	MapOutputBytes     int64
	ShuffleBytes       int64 // map output bytes after optional compression
	ReduceGroups       int64
	ReduceInputRecords int64
	// ReduceWorkRecords counts row-processings inside the reducer; a common
	// reducer running several merged operators reports more work than its
	// input record count (see ReduceCounts).
	ReduceWorkRecords   int64
	ReduceOutputRecords int64
	ReduceOutputBytes   int64
	NumMapTasks         int
	NumReduceTasks      int
	MapOnly             bool
	// MaxPartitionGroups and MaxPartitionValues are the most key groups and
	// the most values any one of the NumReduceTasks reduce tasks receives
	// under the hash partitioner — the latter is the measured reducer size q
	// of Afrati et al. (PAPERS.md), the quantity their lower bounds trade
	// against the replication rate (see ReplicationRate). The means are
	// ReduceGroups and ReduceInputRecords over NumReduceTasks; see
	// PartitionSkew.
	MaxPartitionGroups int64
	MaxPartitionValues int64

	// Dispatch holds per-operator row counts when the job's reducer is a
	// common reducer running a merged operator graph (see ReduceCounts).
	// It is collected on every run, traced or not, so instrumentation never
	// changes observable stats.
	Dispatch []OpDispatch

	// Simulated wall-clock seconds.
	StartupTime float64
	MapTime     float64
	ShuffleTime float64
	ReduceTime  float64
	// GapBefore is contention-induced scheduling delay charged before the
	// job started (zero on isolated clusters).
	GapBefore float64

	// MapBottleneck and ReduceBottleneck name the resource that bounded each
	// phase under the throughput model ("disk", "cpu", or "disk+net") —
	// cost-model provenance surfaced in traces and explain -analyze.
	MapBottleneck    string
	ReduceBottleneck string

	// PredictedTime is the analytic cost model's prediction of the job's
	// startup+map+shuffle+reduce seconds (GapBefore excluded). On the
	// analytic path it equals the measured total, so drift is 1; under a
	// FaultPlan it is the fault-free analytic time, and actual/predicted
	// measures how far recovery pushed the job off the model — the
	// cost-model drift metric the admin plane exports.
	PredictedTime float64

	// Event-level fault recovery, filled only when the cluster carries an
	// active FaultPlan (all zero and nil otherwise, so fault-free runs stay
	// byte-identical to a plan-free engine).
	MapTaskRetries     int // failed or node-lost map attempts that relaunched
	ReduceTaskRetries  int // failed or node-lost reduce attempts that relaunched
	RecomputedMapTasks int // completed map tasks re-executed after a node death
	SpeculativeTasks   int // backup attempts launched for stragglers
	SpeculativeWins    int // backups that finished before their original
	NodeFailures       int // node deaths falling inside this job's span
	// Attempts is the full per-attempt schedule of a fault-injected run,
	// map phase first (absolute simulated times; nil on the analytic path).
	Attempts []TaskAttempt
}

// Retries reports all relaunched attempts across both phases.
func (s *JobStats) Retries() int { return s.MapTaskRetries + s.ReduceTaskRetries }

// HasRecovery reports whether any fault-recovery activity happened in this
// job (retries, recomputes or speculative backups).
func (s *JobStats) HasRecovery() bool {
	return s.Retries()+s.RecomputedMapTasks+s.SpeculativeTasks > 0
}

// ReplicationRate is Afrati et al.'s r: map-output records per map-input
// record (after the combiner; 0 for an empty input). A merged job that
// serves several queries from one shared scan keeps r near 1 where the
// one-to-one translation pays a scan per query.
func (s *JobStats) ReplicationRate() float64 {
	if s.MapInputRecords == 0 {
		return 0
	}
	return float64(s.MapOutputRecords) / float64(s.MapInputRecords)
}

// MeanPartitionValues is the mean number of values per reduce task; with
// MaxPartitionValues it brackets the reducer size (0 for a map-only job).
func (s *JobStats) MeanPartitionValues() float64 {
	if s.NumReduceTasks == 0 {
		return 0
	}
	return float64(s.ReduceInputRecords) / float64(s.NumReduceTasks)
}

// MeanPartitionGroups is the mean number of key groups per reduce task.
func (s *JobStats) MeanPartitionGroups() float64 {
	if s.NumReduceTasks == 0 {
		return 0
	}
	return float64(s.ReduceGroups) / float64(s.NumReduceTasks)
}

// PartitionSkew is max ÷ mean of the values per reduce task: 1 when the
// hash partitioner spreads the job's values evenly, NumReduceTasks when
// one task receives them all (and 0 when there are none).
func (s *JobStats) PartitionSkew() float64 {
	if s.ReduceInputRecords == 0 {
		return 0
	}
	return float64(s.MaxPartitionValues) / s.MeanPartitionValues()
}

// TotalTime is the job's end-to-end simulated duration including the
// scheduling gap before it.
func (s *JobStats) TotalTime() float64 {
	return s.GapBefore + s.StartupTime + s.MapTime + s.ShuffleTime + s.ReduceTime
}

// ReducePhaseTime reports shuffle+reduce together, the way Hadoop's UI (and
// the paper's breakdown figures) attribute time to the "reduce phase".
func (s *JobStats) ReducePhaseTime() float64 { return s.ShuffleTime + s.ReduceTime }

// CostDrift is the ratio of measured to predicted job time (1 when the
// analytic model was exact, >1 when fault recovery stretched the job past
// the model's prediction). It reports 1 when no prediction was recorded.
func (s *JobStats) CostDrift() float64 {
	if s.PredictedTime <= 0 {
		return 1
	}
	return (s.StartupTime + s.MapTime + s.ShuffleTime + s.ReduceTime) / s.PredictedTime
}

// String renders the one-line per-job summary of the execution report.
func (s *JobStats) String() string {
	out := fmt.Sprintf("%s: map %.0fs (%d tasks, in %s, out %s) reduce %.0fs (%d tasks, %d groups) total %.0fs",
		s.Name, s.MapTime, s.NumMapTasks, obs.FormatBytes(s.MapInputBytes), obs.FormatBytes(s.MapOutputBytes),
		s.ReducePhaseTime(), s.NumReduceTasks, s.ReduceGroups, s.TotalTime())
	if s.HasRecovery() {
		out += fmt.Sprintf(" [retries %d, recomputed %d, speculative %d won %d]",
			s.Retries(), s.RecomputedMapTasks, s.SpeculativeTasks, s.SpeculativeWins)
	}
	return out
}

// ChainStats aggregates a job chain (one query execution).
type ChainStats struct {
	Jobs []*JobStats
}

// TotalTime is the simulated end-to-end time of the chain (jobs run one
// after another in the order the chain lists them, as Hive did).
func (c *ChainStats) TotalTime() float64 {
	var t float64
	for _, j := range c.Jobs {
		t += j.TotalTime()
	}
	return t
}

// NumJobs returns the number of executed jobs.
func (c *ChainStats) NumJobs() int { return len(c.Jobs) }

// TotalMapInputBytes sums raw map input bytes over the chain — the "table
// scan volume" the paper's analysis tracks.
func (c *ChainStats) TotalMapInputBytes() int64 {
	var n int64
	for _, j := range c.Jobs {
		n += j.MapInputBytes
	}
	return n
}

// TotalShuffleBytes sums shuffle traffic over the chain.
func (c *ChainStats) TotalShuffleBytes() int64 {
	var n int64
	for _, j := range c.Jobs {
		n += j.ShuffleBytes
	}
	return n
}

// TotalRetries sums relaunched task attempts over the chain.
func (c *ChainStats) TotalRetries() int {
	var n int
	for _, j := range c.Jobs {
		n += j.Retries()
	}
	return n
}

// TotalRecomputed sums node-death map recomputes over the chain.
func (c *ChainStats) TotalRecomputed() int {
	var n int
	for _, j := range c.Jobs {
		n += j.RecomputedMapTasks
	}
	return n
}

// TotalSpeculative sums speculative backups launched over the chain.
func (c *ChainStats) TotalSpeculative() int {
	var n int
	for _, j := range c.Jobs {
		n += j.SpeculativeTasks
	}
	return n
}

// String renders every job's summary line plus the chain total.
func (c *ChainStats) String() string {
	var sb strings.Builder
	for _, j := range c.Jobs {
		sb.WriteString("  " + j.String() + "\n")
	}
	fmt.Fprintf(&sb, "  total: %d jobs, %.0fs", c.NumJobs(), c.TotalTime())
	return sb.String()
}
