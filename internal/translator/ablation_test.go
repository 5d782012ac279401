package translator

import (
	"reflect"
	"testing"
	"time"

	"ysmart/internal/correlation"
	"ysmart/internal/dbms"
	"ysmart/internal/mapreduce"
	"ysmart/internal/queries"
)

// TestPKHeuristicAblation quantifies DESIGN.md ablation #2: forcing Q-CSA's
// aggregations onto the wrong partition-key candidate (ts instead of uid)
// destroys the job-flow correlations, so YSmart degenerates to more jobs —
// while still computing the correct result.
func TestPKHeuristicAblation(t *testing.T) {
	root, err := queries.Plan(queries.QCSA)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: the heuristic picks uid and YSmart needs two jobs.
	good, err := Translate(root, YSmart, Options{QueryName: "pk-good"})
	if err != nil {
		t.Fatal(err)
	}
	if good.NumJobs() != 2 {
		t.Fatalf("baseline jobs = %d, want 2", good.NumJobs())
	}

	// Ablated: override AGG1 and AGG2 to their non-uid candidates.
	a, err := correlation.Analyze(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range a.Ops {
		if op.Kind != correlation.KindAgg || len(op.Agg.GroupBy) < 2 {
			continue
		}
		// Candidate {1} is the timestamp column for both AGG1 and AGG2.
		if err := a.OverridePK(op, []int{1}); err != nil {
			t.Fatal(err)
		}
	}
	bad, err := TranslateAnalyzed(a, YSmart, Options{QueryName: "pk-bad"})
	if err != nil {
		t.Fatal(err)
	}
	if bad.NumJobs() <= good.NumJobs() {
		t.Errorf("ablated jobs = %d, want more than baseline %d",
			bad.NumJobs(), good.NumJobs())
	}

	// Both translations must still be correct.
	dfs, db := workload(t)
	oracle, err := dbms.Execute(root, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*Translation{good, bad} {
		eng, err := mapreduce.NewEngine(dfs, mapreduce.SmallCluster())
		if err != nil {
			t.Fatal(err)
		}
		stats, err := eng.RunChain(tr.Jobs)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := tr.ReadResult(dfs)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRows(t, tr.OutputSchema, rows, oracle.Rows)
		_ = stats
	}

	// And the ablated plan must be slower.
	runTime := func(tr *Translation) float64 {
		eng, err := mapreduce.NewEngine(dfs, mapreduce.SmallCluster())
		if err != nil {
			t.Fatal(err)
		}
		stats, err := eng.RunChain(tr.Jobs)
		if err != nil {
			t.Fatal(err)
		}
		return stats.TotalTime()
	}
	if runTime(bad) <= runTime(good) {
		t.Error("wrong partition key should cost simulated time")
	}
}

// TestOverridePKValidation covers the override's error paths.
func TestOverridePKValidation(t *testing.T) {
	root, err := queries.Plan(queries.QCSA)
	if err != nil {
		t.Fatal(err)
	}
	a, err := correlation.Analyze(root)
	if err != nil {
		t.Fatal(err)
	}
	var join, agg *correlation.Operation
	for _, op := range a.Ops {
		switch op.Kind {
		case correlation.KindJoin:
			join = op
		case correlation.KindAgg:
			if len(op.Agg.GroupBy) >= 2 && agg == nil {
				agg = op
			}
		}
	}
	if err := a.OverridePK(join, []int{0}); err == nil {
		t.Error("overriding a join PK should fail")
	}
	if err := a.OverridePK(agg, nil); err == nil {
		t.Error("empty candidate should fail")
	}
	if err := a.OverridePK(agg, []int{99}); err == nil {
		t.Error("out-of-range candidate should fail")
	}
	if err := a.OverridePK(agg, []int{0, 1}); err != nil {
		t.Errorf("valid candidate rejected: %v", err)
	}
}

// TestWideGroupByTranslatesQuickly: the partition-key heuristic cannot be
// made to stall the front end. A GROUP BY over 17 columns of lineitem ⋈
// orders has 2^17 candidate keys, about a second's work to score them all.
// Only one size can match a partner's key — the join's, one column — so the
// translation takes well under a millisecond, and still keys the
// aggregation on the join column.
func TestWideGroupByTranslatesQuickly(t *testing.T) {
	cols := "l_orderkey, l_partkey, l_suppkey, l_quantity, l_extendedprice, l_receiptdate, l_commitdate, l_shipdate, " +
		"l_returnflag, l_shipmode, l_comment, o_custkey, o_orderstatus, o_totalprice, o_orderdate, o_clerk, o_comment"
	sql := "SELECT " + cols + ", count(*) AS n FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY " + cols
	start := time.Now()
	tr := translate(t, sql, YSmart, Options{QueryName: "wide"})
	if took := time.Since(start); took > 50*time.Millisecond {
		t.Errorf("a 17-column GROUP BY took %v to translate, budget 50ms", took)
	}
	for _, op := range tr.Analysis.Ops {
		if op.Kind == correlation.KindAgg && (len(op.Agg.GroupBy) != 17 || !reflect.DeepEqual(op.Agg.PKChoice, []int{0})) {
			t.Errorf("aggregation over %d columns keyed on %v, want 17 columns keyed on [0] (l_orderkey)", len(op.Agg.GroupBy), op.Agg.PKChoice)
		}
	}
	if tr.NumJobs() != 1 {
		t.Errorf("%d jobs, want the aggregation merged into the join's one job", tr.NumJobs())
	}
}
