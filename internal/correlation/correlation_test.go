package correlation

import (
	"reflect"
	"strings"
	"testing"

	"ysmart/internal/plan"
	"ysmart/internal/queries"
	"ysmart/internal/sqlparser"
)

func analyze(t *testing.T, sql string) *Analysis {
	t.Helper()
	root, err := queries.Plan(sql)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	a, err := Analyze(root)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return a
}

func opByName(t *testing.T, a *Analysis, name string) *Operation {
	t.Helper()
	for _, op := range a.Ops {
		if op.Name() == name {
			return op
		}
	}
	t.Fatalf("operation %s not found in %v", name, names(a))
	return nil
}

func names(a *Analysis) []string {
	out := make([]string, len(a.Ops))
	for i, op := range a.Ops {
		out[i] = op.Name()
	}
	return out
}

func TestPureSPQueryHasNoOps(t *testing.T) {
	a := analyze(t, "SELECT uid, ts FROM clicks WHERE cid = 5")
	if a.RootOp != nil || len(a.Ops) != 0 {
		t.Fatalf("ops = %v, want none", names(a))
	}
	if len(a.TopChain) == 0 {
		t.Error("top chain should hold the projection/filter")
	}
}

// Q17 (paper §IV.B): AGG1 and JOIN1 have input correlation and transit
// correlation; JOIN2 has job-flow correlation with both children.
func TestQ17Correlations(t *testing.T) {
	a := analyze(t, queries.Q17)
	if got := strings.Join(names(a), ","); got != "AGG1,JOIN1,JOIN2,AGG2" {
		t.Fatalf("ops = %s, want AGG1,JOIN1,JOIN2,AGG2", got)
	}
	agg1 := opByName(t, a, "AGG1")
	join1 := opByName(t, a, "JOIN1")
	join2 := opByName(t, a, "JOIN2")
	agg2 := opByName(t, a, "AGG2")

	if !a.InputCorrelated(agg1, join1) {
		t.Error("AGG1 and JOIN1 must have input correlation (both scan lineitem)")
	}
	if !a.TransitCorrelated(agg1, join1) {
		t.Error("AGG1 and JOIN1 must have transit correlation (same PK l_partkey)")
	}
	if !a.JobFlowCorrelated(join2, agg1) {
		t.Error("JOIN2 must have JFC with AGG1")
	}
	if !a.JobFlowCorrelated(join2, join1) {
		t.Error("JOIN2 must have JFC with JOIN1")
	}
	// The final global aggregation has no partition key and no JFC.
	if a.PK(agg2) != nil {
		t.Errorf("global AGG2 pk = %v, want none", a.PK(agg2))
	}
	if a.JobFlowCorrelated(agg2, join2) {
		t.Error("global AGG2 must not have JFC")
	}
}

// Q-CSA (paper §VII.A.2): AGG1 and AGG2 have multiple candidate PKs; the
// heuristic must pick uid so all five operations correlate.
func TestQCSAPartitionKeyChoice(t *testing.T) {
	a := analyze(t, queries.QCSA)
	if got := strings.Join(names(a), ","); got != "JOIN1,AGG1,AGG2,JOIN2,AGG3,AGG4" {
		t.Fatalf("ops = %s", got)
	}
	uid := plan.PartKey{plan.NewKeyComponent(plan.MakeColumnID("clicks", "uid"))}
	for _, name := range []string{"JOIN1", "AGG1", "AGG2", "JOIN2", "AGG3"} {
		op := opByName(t, a, name)
		if pk := a.PK(op); pk == nil || !pk.Equal(uid) {
			t.Errorf("%s pk = %v, want uid", name, a.PK(op))
		}
	}
	// The JFC chain JOIN1 <- AGG1 <- AGG2 <- JOIN2 <- AGG3 must hold.
	chain := []struct{ parent, child string }{
		{"AGG1", "JOIN1"},
		{"AGG2", "AGG1"},
		{"JOIN2", "AGG2"},
		{"AGG3", "JOIN2"},
	}
	for _, c := range chain {
		if !a.JobFlowCorrelated(opByName(t, a, c.parent), opByName(t, a, c.child)) {
			t.Errorf("JFC %s <- %s missing", c.parent, c.child)
		}
	}
	// JOIN1 and JOIN2 share the clicks scan with the same key.
	if !a.TransitCorrelated(opByName(t, a, "JOIN1"), opByName(t, a, "JOIN2")) {
		t.Error("JOIN1 and JOIN2 must have transit correlation")
	}
}

// Q21 subtree (paper §VII.C): JOIN1, AGG1 and AGG2 all scan lineitem with
// PK l_orderkey; JOIN2 and the left outer join have JFC with both children.
func TestQ21Correlations(t *testing.T) {
	a := analyze(t, queries.Q21)
	if got := strings.Join(names(a), ","); got != "JOIN1,AGG1,JOIN2,AGG2,JOIN3" {
		t.Fatalf("ops = %s", got)
	}
	join1 := opByName(t, a, "JOIN1")
	agg1 := opByName(t, a, "AGG1")
	join2 := opByName(t, a, "JOIN2")
	agg2 := opByName(t, a, "AGG2")
	loj := opByName(t, a, "JOIN3")

	for _, pair := range [][2]*Operation{{join1, agg1}, {join1, agg2}, {agg1, agg2}} {
		if !a.TransitCorrelated(pair[0], pair[1]) {
			t.Errorf("TC missing between %s and %s", pair[0].Name(), pair[1].Name())
		}
	}
	if !a.JobFlowCorrelated(join2, join1) || !a.JobFlowCorrelated(join2, agg1) {
		t.Error("JOIN2 must have JFC with both children")
	}
	if !a.JobFlowCorrelated(loj, join2) || !a.JobFlowCorrelated(loj, agg2) {
		t.Error("Left Outer Join 1 must have JFC with both children")
	}
}

// Q18: AGG2 groups by six columns; the heuristic must choose c_custkey —
// the only candidate that correlates with its child JOIN3 — over
// o_orderkey, which matches more operations but can form no correlation
// with any of them.
func TestQ18PartitionKeyHeuristicUsesCorrelatablePartners(t *testing.T) {
	a := analyze(t, queries.Q18)
	if got := strings.Join(names(a), ","); got != "JOIN1,AGG1,JOIN2,JOIN3,AGG2,SORT1" {
		t.Fatalf("ops = %s", got)
	}
	agg2 := opByName(t, a, "AGG2")
	join3 := opByName(t, a, "JOIN3")
	custkey := plan.PartKey{plan.NewKeyComponent(
		plan.MakeColumnID("customer", "c_custkey"),
		plan.MakeColumnID("orders", "o_custkey"),
	)}
	if pk := a.PK(agg2); pk == nil || !pk.Equal(custkey) {
		t.Errorf("AGG2 pk = %v, want c_custkey", a.PK(agg2))
	}
	if !a.JobFlowCorrelated(agg2, join3) {
		t.Error("AGG2 must have JFC with JOIN3")
	}
	// The first three operations share PK l_orderkey.
	okey := plan.PartKey{plan.NewKeyComponent(plan.MakeColumnID("lineitem", "l_orderkey"))}
	for _, name := range []string{"JOIN1", "AGG1", "JOIN2"} {
		if pk := a.PK(opByName(t, a, name)); pk == nil || !pk.Equal(okey) {
			t.Errorf("%s pk = %v, want l_orderkey", name, pk)
		}
	}
	// Sorts never have a partition key.
	if a.PK(opByName(t, a, "SORT1")) != nil {
		t.Error("SORT1 must have no pk")
	}
}

func TestPostOrderNumbering(t *testing.T) {
	a := analyze(t, queries.QCSA)
	for i, op := range a.Ops {
		if op.ID != i+1 {
			t.Errorf("op %s id = %d, want %d", op.Name(), op.ID, i+1)
		}
		for _, in := range op.Inputs {
			if in.Op != nil && in.Op.ID >= op.ID {
				t.Errorf("child %s (id %d) numbered after parent %s (id %d)",
					in.Op.Name(), in.Op.ID, op.Name(), op.ID)
			}
		}
	}
}

// Rule 4 child exchange: when a join has JFC with exactly one input
// operation, the other input's subtree is numbered first (Fig. 7(b)).
func TestRule4ChildExchange(t *testing.T) {
	// The outer join partitions by uid: JFC holds with the aggregation
	// (grouped by uid) but not with the inner join, whose own partition key
	// is fixed at cid = p_partkey. The aggregation is listed first in FROM,
	// so without the exchange it would get the lower job number.
	sql := `
	SELECT a.uid FROM
	  (SELECT uid, count(*) AS n FROM clicks GROUP BY uid) AS a,
	  (SELECT x.uid AS xuid, p_name FROM clicks x, part WHERE x.cid = p_partkey) AS b
	WHERE a.uid = b.xuid`
	a := analyze(t, sql)
	join := a.RootOp
	if join.Kind != KindJoin {
		t.Fatalf("root op is %v", join.Kind)
	}
	aggA := join.Inputs[0].Op
	joinB := join.Inputs[1].Op
	jfcA := a.JobFlowCorrelated(join, aggA)
	jfcB := a.JobFlowCorrelated(join, joinB)
	if !jfcA || jfcB {
		t.Fatalf("jfc = (%v, %v), want (true, false)", jfcA, jfcB)
	}
	if joinB.ID >= aggA.ID {
		t.Errorf("rule 4 exchange: non-JFC child should be numbered first (joinB=%d, aggA=%d)",
			joinB.ID, aggA.ID)
	}
}

func TestInputTables(t *testing.T) {
	a := analyze(t, queries.Q21)
	join1 := opByName(t, a, "JOIN1")
	tables := a.InputTables(join1)
	if !tables["lineitem"] || !tables["orders"] || len(tables) != 2 {
		t.Errorf("JOIN1 input tables = %v", tables)
	}
	// JOIN2 reads only operation outputs.
	if got := a.InputTables(opByName(t, a, "JOIN2")); len(got) != 0 {
		t.Errorf("JOIN2 input tables = %v, want none", got)
	}
}

func TestReportMentionsCorrelations(t *testing.T) {
	a := analyze(t, queries.Q17)
	r := a.Report()
	for _, want := range []string{"AGG1", "JOIN1", "JOIN2", "TC", "JFC"} {
		if !strings.Contains(r, want) {
			t.Errorf("report missing %q:\n%s", want, r)
		}
	}
	sp := analyze(t, "SELECT uid FROM clicks")
	if !strings.Contains(sp.Report(), "no operations") {
		t.Error("SP report should say no operations")
	}
}

func TestInputIsTableAndOverridePK(t *testing.T) {
	a := analyze(t, queries.Q17)
	join1 := opByName(t, a, "JOIN1")
	for _, in := range join1.Inputs {
		if !in.IsTable() {
			t.Error("JOIN1 inputs should be base tables")
		}
	}
	join2 := opByName(t, a, "JOIN2")
	for _, in := range join2.Inputs {
		if in.IsTable() {
			t.Error("JOIN2 inputs should be operations")
		}
	}
	// OverridePK flips an aggregation's key and is visible through PK().
	agg1 := opByName(t, a, "AGG1")
	if err := a.OverridePK(agg1, []int{0}); err != nil {
		t.Fatalf("OverridePK: %v", err)
	}
	if a.PK(agg1) == nil {
		t.Error("override lost the key")
	}
	if err := a.OverridePK(join2, []int{0}); err == nil {
		t.Error("join PK override should fail")
	}
}

// choosePartitionKeysExhaustive is the heuristic without its shortcuts: it
// scores every candidate CandidatePKs lists, building each key from scratch
// and re-deciding per candidate which operations can correlate. It is the
// oracle choosePartitionKeys must agree with.
func (a *Analysis) choosePartitionKeysExhaustive() {
	for _, op := range a.Ops {
		if op.Kind == KindJoin {
			a.pks[op] = op.Join.PartKey()
		}
	}
	score := func(op *Operation, pk plan.PartKey) int {
		n := 0
		for _, other := range a.Ops {
			if opk, ok := a.pks[other]; ok && other != op && a.canCorrelate(op, other) && pk.Equal(opk) {
				n++
			}
		}
		return n
	}
	for pass := 0; pass < 2; pass++ {
		for _, op := range a.Ops {
			if op.Kind != KindAgg {
				continue
			}
			cands := op.Agg.CandidatePKs()
			if len(cands) == 0 {
				delete(a.pks, op)
				continue
			}
			best, bestScore := cands[0], score(op, op.Agg.PartKeyFor(cands[0]))
			for _, cand := range cands[1:] {
				if s := score(op, op.Agg.PartKeyFor(cand)); s > bestScore {
					best, bestScore = cand, s
				}
			}
			op.Agg.PKChoice = best
			a.pks[op] = op.Agg.PartKeyFor(best)
		}
	}
}

// TestPartitionKeyChoiceMatchesExhaustive: building each aggregation's key
// components once and enumerating only the candidate sizes some partner's
// key has picks the same candidate as scoring every subset — on the
// workload queries and on shapes where wide GROUP BYs meet one- and
// two-column keys, self-joins, aggregations that key each other, and a tie
// the earliest candidate must win.
func TestPartitionKeyChoiceMatchesExhaustive(t *testing.T) {
	sqls := []string{
		"SELECT l_orderkey, l_partkey, l_suppkey, l_shipmode, o_custkey, o_orderstatus, o_clerk, count(*) AS n " +
			"FROM lineitem, orders WHERE l_orderkey = o_orderkey " +
			"GROUP BY l_shipmode, l_suppkey, o_clerk, l_partkey, o_orderstatus, o_custkey, l_orderkey",
		"SELECT a.l_suppkey, a.l_partkey, a.l_orderkey, a.l_shipmode, count(*) AS n " +
			"FROM lineitem AS a, lineitem AS b WHERE a.l_orderkey = b.l_orderkey AND a.l_partkey = b.l_partkey " +
			"GROUP BY a.l_suppkey, a.l_shipmode, a.l_partkey, a.l_orderkey",
		"SELECT x.l_partkey, x.l_suppkey, x.n, y.m FROM " +
			"(SELECT l_shipmode, l_suppkey, l_partkey, count(*) AS n FROM lineitem GROUP BY l_shipmode, l_suppkey, l_partkey) AS x, " +
			"(SELECT l_suppkey, l_partkey, sum(l_quantity) AS m FROM lineitem GROUP BY l_suppkey, l_partkey) AS y " +
			"WHERE x.l_partkey = y.l_partkey AND x.l_suppkey = y.l_suppkey",
		// x's two one-column candidates tie at one partner each (y, z):
		// the first must win.
		"SELECT x.l_partkey, y.m, z.k FROM " +
			"(SELECT l_partkey, l_orderkey, count(*) AS n FROM lineitem GROUP BY l_partkey, l_orderkey) AS x, " +
			"(SELECT l_orderkey, count(*) AS m FROM lineitem GROUP BY l_orderkey) AS y, " +
			"(SELECT l_partkey, count(*) AS k FROM lineitem GROUP BY l_partkey) AS z WHERE x.n = y.m AND x.n = z.k",
	}
	for _, sql := range queries.Named() {
		sqls = append(sqls, sql)
	}
	// extractOps replays Analyze up to the heuristic, so both runs see the
	// operations in the order Analyze chooses keys in.
	extractOps := func(sql string) *Analysis {
		root, err := queries.Plan(sql)
		if err != nil {
			t.Fatalf("plan %q: %v", sql, err)
		}
		a := &Analysis{root: root, pks: make(map[*Operation]plan.PartKey)}
		a.RootOp = a.extract(root, nil).Op
		a.collectOps()
		return a
	}
	for _, sql := range sqls {
		got, want := extractOps(sql), extractOps(sql)
		got.choosePartitionKeys()
		want.choosePartitionKeysExhaustive()
		for i, op := range got.Ops {
			w := want.Ops[i]
			if op.Kind != KindAgg {
				continue
			}
			if !reflect.DeepEqual(op.Agg.PKChoice, w.Agg.PKChoice) || got.pks[op].String() != want.pks[w].String() {
				t.Errorf("%q op %d: chose %v %v, exhaustive %v %v", sql, i, op.Agg.PKChoice, got.pks[op], w.Agg.PKChoice, want.pks[w])
			}
		}
	}
}

// TestEachSubsetFollowsCandidateOrder: one size's subsets come out in the
// order CandidatePKs lists that size.
func TestEachSubsetFollowsCandidateOrder(t *testing.T) {
	for n := 1; n <= 8; n++ {
		all := (&plan.Aggregate{GroupBy: make([]sqlparser.Expr, n)}).CandidatePKs()
		for size := 1; size <= n; size++ {
			var want, got [][]int
			for _, c := range all {
				if len(c) == size {
					want = append(want, c)
				}
			}
			eachSubset(n, size, func(c []int) { got = append(got, append([]int(nil), c...)) })
			if !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d size=%d: got %v, want %v", n, size, got, want)
			}
		}
	}
}
