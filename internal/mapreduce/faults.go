package mapreduce

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strconv"
	"strings"
)

// FaultPlan is a deterministic, seeded fault scenario injected into the
// engine's wave scheduler, recovered from at the event level: failed task
// attempts are actually re-executed through the user's map/reduce code
// (re-reading their input from the surviving DFS replicas), whole-node
// failures kill in-flight attempts and force completed map tasks on the
// dead node to recompute their lost local output, and straggler attempts
// run slowed down — the mechanics Dean & Ghemawat describe that the
// paper's §III materialization argument takes for granted.
//
// Every outcome is derived by hashing (Seed, kind, job, phase, task,
// attempt), so the scenario is a pure function of the plan: independent of
// iteration order, of whether a tracer is attached, and of previous runs.
type FaultPlan struct {
	// Seed selects the deterministic fault sequence.
	Seed int64
	// TaskFailureProb is the per-attempt probability that a map or reduce
	// task attempt fails partway through and must be relaunched. In [0, 1).
	TaskFailureProb float64
	// StragglerProb is the per-attempt probability that an attempt runs
	// StragglerFactor times slower than nominal. In [0, 1).
	StragglerProb float64
	// StragglerFactor multiplies a straggling attempt's work time
	// (default 4, must be >= 1 when set).
	StragglerFactor float64
	// MaxAttempts bounds executions per task, like Hadoop's
	// mapred.map.max.attempts (default 4). The simulator injects at most
	// MaxAttempts-1 failures per task, so jobs always complete: the final
	// allowed attempt succeeds unless its node dies.
	MaxAttempts int
	// NodeFailures lists whole-node deaths. A dead node's slots never run
	// another attempt; its in-flight attempts are killed and relaunched
	// elsewhere, and map tasks that already completed on it re-execute to
	// recompute their lost (node-local) map output.
	NodeFailures []NodeFailure
}

// NodeFailure kills one node at an absolute simulated time. Times share
// the engine clock, so in a job chain a failure can land in any job, or
// between jobs.
type NodeFailure struct {
	// Node is the worker index in [0, Cluster.Nodes).
	Node int
	// At is the death time in absolute simulated seconds.
	At float64
}

// Speculation configures backup attempts for stragglers (MapReduce's
// "backup tasks"). When enabled, a successful attempt running at least
// slowdownThreshold (1.5) times its nominal duration gets a backup attempt
// once a slot frees after the task's expected completion; the first
// finisher wins and the loser is killed.
type Speculation struct {
	Enabled bool
}

// Fault-plan tuning constants.
const (
	defaultStragglerFactor = 4
	defaultMaxAttempts     = 4
	// slowdownThreshold is the slowdown factor from which an attempt is
	// considered straggling.
	slowdownThreshold = 1.5
)

// stragglerFactor returns the configured factor or its default.
func (p *FaultPlan) stragglerFactor() float64 {
	if p.StragglerFactor <= 0 {
		return defaultStragglerFactor
	}
	return p.StragglerFactor
}

// maxAttempts returns the configured attempt cap or its default.
func (p *FaultPlan) maxAttempts() int {
	if p.MaxAttempts <= 0 {
		return defaultMaxAttempts
	}
	return p.MaxAttempts
}

// IsZero reports whether the plan injects no events at all. An engine with
// a zero plan takes the exact analytic cost path of a plan-free engine, so
// results and JobStats are byte-identical.
func (p *FaultPlan) IsZero() bool {
	return p.TaskFailureProb == 0 && p.StragglerProb == 0 && len(p.NodeFailures) == 0
}

// Validate checks the plan against the cluster it will run on.
func (p *FaultPlan) Validate(nodes int) error {
	// The range checks below are written as negated closed-interval tests
	// on purpose: NaN compares false against everything, so `< 0 || >= 1`
	// would wave a NaN probability through.
	switch {
	case !(p.TaskFailureProb >= 0 && p.TaskFailureProb < 1):
		return fmt.Errorf("fault plan: task failure probability must be in [0, 1)")
	case !(p.StragglerProb >= 0 && p.StragglerProb < 1):
		return fmt.Errorf("fault plan: straggler probability must be in [0, 1)")
	case p.StragglerFactor != 0 && !(p.StragglerFactor >= 1 && !math.IsInf(p.StragglerFactor, 1)):
		return fmt.Errorf("fault plan: straggler factor must be finite and >= 1")
	case p.MaxAttempts < 0:
		return fmt.Errorf("fault plan: max attempts must be positive")
	}
	listed := make(map[int]bool, len(p.NodeFailures))
	for _, nf := range p.NodeFailures {
		if nf.Node < 0 || nf.Node >= nodes {
			return fmt.Errorf("fault plan: node %d out of range [0, %d)", nf.Node, nodes)
		}
		if !(nf.At >= 0 && !math.IsInf(nf.At, 1)) {
			return fmt.Errorf("fault plan: node %d failure time must be finite and >= 0", nf.Node)
		}
		// A node dies once: a second entry would be counted and traced as
		// a death that never happens.
		if listed[nf.Node] {
			return fmt.Errorf("fault plan: node %d listed twice", nf.Node)
		}
		listed[nf.Node] = true
	}
	return nil
}

// deathTimes returns each listed node's death time.
func (p *FaultPlan) deathTimes() map[int]float64 {
	if len(p.NodeFailures) == 0 {
		return nil
	}
	out := make(map[int]float64, len(p.NodeFailures))
	for _, nf := range p.NodeFailures {
		out[nf.Node] = nf.At
	}
	return out
}

// roll derives a deterministic uniform value in [0, 1) for one decision.
// The key includes every coordinate of the decision, so outcomes are
// independent of scheduling order and of each other.
func (p *FaultPlan) roll(kind, job, phase string, task, attempt int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s\x00%s\x00%s\x00%d\x00%d", p.Seed, kind, job, phase, task, attempt)
	return float64(h.Sum64()>>11) / float64(uint64(1)<<53)
}

// TaskAttempt records one scheduled execution attempt of a task — the
// event-level recovery history kept in JobStats.Attempts and rendered by
// the trace exporters. Times are absolute simulated seconds.
type TaskAttempt struct {
	// Phase is "map" or "reduce".
	Phase string
	// Task is the task index within the phase; Attempt numbers the task's
	// executions (0 is the original).
	Task, Attempt int
	// Node is the worker the attempt ran on.
	Node int
	// Start and Dur locate the attempt on the simulated clock.
	Start, Dur float64
	// Outcome is "ok", "failed" (injected task failure), "node-lost"
	// (killed by a node death), or "killed" (lost a speculative race).
	Outcome string
	// Speculative marks backup attempts launched for stragglers.
	Speculative bool
	// Recompute marks re-executions of already-completed map tasks whose
	// output died with their node.
	Recompute bool
}

// Attempt outcome values.
const (
	OutcomeOK       = "ok"
	OutcomeFailed   = "failed"
	OutcomeNodeLost = "node-lost"
	OutcomeKilled   = "killed"
)

// ParseFaultSpec parses the compact fault DSL used by the -faults CLI
// flag: comma-separated clauses
//
//	task=P            per-attempt task failure probability
//	straggler=PxF     straggler probability P slowed by factor F (F optional)
//	node=N@T          node N dies at simulated second T (repeatable)
//	attempts=K        per-task attempt cap
//
// e.g. "task=0.1,straggler=0.05x6,node=2@500". The seed is supplied
// separately (-fault-seed) so one scenario can be replayed under many
// seeds.
func ParseFaultSpec(spec string) (*FaultPlan, error) {
	// strconv.ParseFloat happily accepts "NaN" and "Inf"; no fault
	// coordinate may be non-finite, so reject them right at the parser.
	parseFinite := func(clause, s string) (float64, error) {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("fault spec %q: %v", clause, err)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 0, fmt.Errorf("fault spec %q: value must be finite", clause)
		}
		return f, nil
	}
	p := &FaultPlan{}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("fault spec %q: want key=value", clause)
		}
		switch key {
		case "task":
			f, err := parseFinite(clause, val)
			if err != nil {
				return nil, err
			}
			p.TaskFailureProb = f
		case "straggler":
			prob, factor, hasFactor := strings.Cut(val, "x")
			f, err := parseFinite(clause, prob)
			if err != nil {
				return nil, err
			}
			p.StragglerProb = f
			if hasFactor {
				x, err := parseFinite(clause, factor)
				if err != nil {
					return nil, err
				}
				p.StragglerFactor = x
			}
		case "node":
			idx, at, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("fault spec %q: want node=N@T", clause)
			}
			n, err := strconv.Atoi(idx)
			if err != nil {
				return nil, fmt.Errorf("fault spec %q: %v", clause, err)
			}
			t, err := parseFinite(clause, at)
			if err != nil {
				return nil, err
			}
			p.NodeFailures = append(p.NodeFailures, NodeFailure{Node: n, At: t})
		case "attempts":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("fault spec %q: %v", clause, err)
			}
			p.MaxAttempts = n
		default:
			return nil, fmt.Errorf("fault spec: unknown key %q (have task, straggler, node, attempts)", key)
		}
	}
	// cmp.Compare is a total order on floats, NaN included, though
	// parseFinite has already rejected non-finite times.
	slices.SortFunc(p.NodeFailures, func(a, b NodeFailure) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Node, b.Node))
	})
	return p, nil
}
