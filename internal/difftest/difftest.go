// Package difftest is the differential proof harness behind the engine's
// worker pool: it executes the workload queries through the MapReduce
// engine at several worker counts, with and without seeded fault
// injection, and asserts that result rows, per-job stats and trace event
// streams are byte-identical — host parallelism must be unobservable. Row
// content is additionally cross-checked against the pipelined DBMS
// executor (internal/dbms) as an independent oracle, and committed golden
// files pin the sorted result rows of every query.
package difftest

import (
	"fmt"
	"sort"
	"strings"

	"ysmart"
	"ysmart/internal/dbms"
	"ysmart/internal/mapreduce"
	"ysmart/internal/obs"
	"ysmart/internal/queries"
)

// Run captures everything one engine execution produced that must be
// invariant under the worker count.
type Run struct {
	// Rows is the query result in engine output order (not sorted: the
	// order itself must match across worker counts).
	Rows []ysmart.Row
	// Jobs is the per-job stats slice, compared with reflect.DeepEqual.
	Jobs []*mapreduce.JobStats
	// Trace is the Chrome trace-event JSON of the run, compared byte-wise.
	Trace []byte
	// Reuse is the cross-query rewrite the run executed (the identity
	// rewrite when no store was attached).
	Reuse *ysmart.ReusePlan
}

// SortedLines is the canonical sorted row encoding used to compare the
// engine against the DBMS oracle and the golden files.
func (r *Run) SortedLines() []string { return dbms.SortedLines(r.Rows) }

// QueryNames returns the workload query names in sorted order.
func QueryNames() []string {
	named := queries.Named()
	names := make([]string, 0, len(named))
	for n := range named {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Cluster builds the harness cluster: four nodes with a tiny split size so
// even test-scale inputs fan out into many real map tasks, several waves
// and multiple reduce partitions — the regime where scheduling bugs would
// show. plan, when non-nil, is copied onto the cluster.
func Cluster(plan *mapreduce.FaultPlan) *ysmart.Cluster {
	c := mapreduce.SmallCluster()
	c.Name = "difftest-4node"
	c.Nodes = 4
	c.MapSlotsPerNode = 2
	c.ReduceSlotsPerNode = 2
	c.Cost.SplitSize = 512
	if plan != nil {
		cp := *plan
		c.Faults = &cp
		c.Speculation = ysmart.Speculation{Enabled: true}
	}
	return c
}

// FaultPlans returns the fault scenarios of the differential matrix: the
// fault-free baseline (nil) plus seeded plans mixing task failures,
// stragglers and a node death that lands inside the first job's map phase
// on the harness cluster.
func FaultPlans(seeds ...int64) []*mapreduce.FaultPlan {
	plans := []*mapreduce.FaultPlan{nil}
	for _, seed := range seeds {
		plans = append(plans, &mapreduce.FaultPlan{
			Seed:            seed,
			TaskFailureProb: 0.15,
			StragglerProb:   0.1,
			StragglerFactor: 4,
			NodeFailures:    []ysmart.NodeFailure{{Node: 3, At: 14}},
		})
	}
	return plans
}

// PlanLabel names a fault plan for subtest labels.
func PlanLabel(plan *mapreduce.FaultPlan) string {
	if plan == nil {
		return "fault-free"
	}
	return fmt.Sprintf("faults-seed%d", plan.Seed)
}

// Compile translates one workload query, with the MANIMAL scan rewrites
// applied when optimize is set (the `-manimal` execution path). The matrix
// compiles each (query, mode, optimize) once: a translation is immutable
// once built, so every worker count, fault plan and concurrent runtime
// executes the same one.
func Compile(name, sql string, mode ysmart.Mode, optimize bool) (*ysmart.Translation, error) {
	q, err := ysmart.Parse(sql, ysmart.WorkloadCatalog())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	tr, err := q.Translate(mode, ysmart.Options{QueryName: strings.ToLower(name)})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if optimize {
		ysmart.ApplyManimal(tr)
	}
	return tr, nil
}

// Execute runs a compiled query through the engine: fresh runtime, the
// harness cluster with the given fault plan, the given worker count, and a
// collector so the trace byte stream is part of the comparison surface.
func Execute(tr *ysmart.Translation, workers int, plan *mapreduce.FaultPlan, tables map[string][]ysmart.Row) (*Run, error) {
	return execute(tr, workers, plan, tables, nil)
}

// execute is Execute with an optional cross-query reuse store attached.
func execute(tr *ysmart.Translation, workers int, plan *mapreduce.FaultPlan, tables map[string][]ysmart.Row, store *ysmart.ReuseStore) (*Run, error) {
	rt, err := ysmart.NewRuntime(Cluster(plan))
	if err != nil {
		return nil, err
	}
	rt.SetWorkers(workers)
	rt.LoadTables(tables)
	col := obs.NewCollector()
	res, err := rt.Run(tr, ysmart.WithTracer(col), ysmart.WithReuse(store))
	if err != nil {
		return nil, fmt.Errorf("workers=%d, %s: %w", workers, PlanLabel(plan), err)
	}
	return &Run{Rows: res.Rows, Jobs: res.Stats.Jobs, Trace: obs.ChromeTrace(col.Events()), Reuse: res.Reuse}, nil
}

// Oracle runs the query on the pipelined DBMS executor and returns its
// sorted row encoding.
func Oracle(sql string, tables map[string][]ysmart.Row) ([]string, error) {
	q, err := ysmart.Parse(sql, ysmart.WorkloadCatalog())
	if err != nil {
		return nil, err
	}
	rows, err := ysmart.OracleResult(q, ysmart.WorkloadCatalog(), tables)
	if err != nil {
		return nil, err
	}
	return dbms.SortedLines(rows), nil
}
