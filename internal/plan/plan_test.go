package plan

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ysmart/internal/exec"
	"ysmart/internal/sqlparser"
)

// testCatalog mirrors the tables used throughout the paper: the TPC-H
// subset (lineitem, orders, part) and the click-stream table.
func testCatalog() MapCatalog {
	return MapCatalog{
		"lineitem": exec.NewSchema(
			exec.Column{Name: "l_orderkey", Type: exec.TypeInt},
			exec.Column{Name: "l_partkey", Type: exec.TypeInt},
			exec.Column{Name: "l_suppkey", Type: exec.TypeInt},
			exec.Column{Name: "l_quantity", Type: exec.TypeFloat},
			exec.Column{Name: "l_extendedprice", Type: exec.TypeFloat},
			exec.Column{Name: "l_receiptdate", Type: exec.TypeInt},
			exec.Column{Name: "l_commitdate", Type: exec.TypeInt},
		),
		"orders": exec.NewSchema(
			exec.Column{Name: "o_orderkey", Type: exec.TypeInt},
			exec.Column{Name: "o_custkey", Type: exec.TypeInt},
			exec.Column{Name: "o_orderstatus", Type: exec.TypeString},
			exec.Column{Name: "o_totalprice", Type: exec.TypeFloat},
		),
		"part": exec.NewSchema(
			exec.Column{Name: "p_partkey", Type: exec.TypeInt},
			exec.Column{Name: "p_name", Type: exec.TypeString},
		),
		"clicks": exec.NewSchema(
			exec.Column{Name: "uid", Type: exec.TypeInt},
			exec.Column{Name: "page", Type: exec.TypeInt},
			exec.Column{Name: "cid", Type: exec.TypeInt},
			exec.Column{Name: "ts", Type: exec.TypeInt},
		),
	}
}

func mustBuild(t *testing.T, sql string) Node {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	n, err := Build(stmt, testCatalog())
	if err != nil {
		t.Fatalf("build %q: %v", sql, err)
	}
	return n
}

// findNode returns the first node of type T in pre-order.
func findNode[T Node](n Node) (T, bool) {
	var zero T
	var found T
	ok := false
	Walk(n, func(m Node) {
		if ok {
			return
		}
		if t, is := m.(T); is {
			found, ok = t, true
		}
	})
	if !ok {
		return zero, false
	}
	return found, true
}

// collectNodes returns all nodes of type T in pre-order.
func collectNodes[T Node](n Node) []T {
	var out []T
	Walk(n, func(m Node) {
		if t, is := m.(T); is {
			out = append(out, t)
		}
	})
	return out
}

func TestBuildSimpleScanFilterProject(t *testing.T) {
	n := mustBuild(t, "SELECT uid, ts FROM clicks WHERE cid = 5")
	p, ok := n.(*Project)
	if !ok {
		t.Fatalf("root is %T, want *Project", n)
	}
	if p.Schema().Len() != 2 {
		t.Fatalf("schema = %s, want 2 cols", p.Schema())
	}
	f, ok := p.Child.(*Filter)
	if !ok {
		t.Fatalf("child is %T, want *Filter", p.Child)
	}
	if _, ok := f.Child.(*Scan); !ok {
		t.Fatalf("grandchild is %T, want *Scan", f.Child)
	}
	// Lineage of both output columns traces to clicks.
	lin := p.Lineage()
	if lin[0] != MakeColumnID("clicks", "uid") || lin[1] != MakeColumnID("clicks", "ts") {
		t.Errorf("lineage = %v", lin)
	}
}

func TestBuildCommaJoinExtractsKeys(t *testing.T) {
	n := mustBuild(t, `SELECT l_partkey FROM lineitem, part WHERE p_partkey = l_partkey AND l_quantity > 5`)
	j, ok := findNode[*Join](n)
	if !ok {
		t.Fatal("no join in plan")
	}
	if len(j.LeftKeys) != 1 || len(j.RightKeys) != 1 {
		t.Fatalf("keys = %v/%v, want 1 pair", j.LeftKeys, j.RightKeys)
	}
	// The single-table predicate must be pushed below the join.
	if _, ok := j.Left.(*Filter); !ok {
		t.Errorf("left child is %T, want *Filter (pushdown of l_quantity > 5)", j.Left)
	}
	// Join PK must contain both lineage IDs in one component.
	pk := j.PartKey()
	if len(pk) != 1 {
		t.Fatalf("pk = %v, want one component", pk)
	}
	if !pk[0][MakeColumnID("lineitem", "l_partkey")] || !pk[0][MakeColumnID("part", "p_partkey")] {
		t.Errorf("pk component = %v, want {lineitem.l_partkey, part.p_partkey}", pk[0])
	}
}

func TestBuildSelfJoinDetection(t *testing.T) {
	n := mustBuild(t, `SELECT c1.uid FROM clicks AS c1, clicks AS c2
		WHERE c1.uid = c2.uid AND c1.ts < c2.ts AND c1.cid = 1 AND c2.cid = 2`)
	j, ok := findNode[*Join](n)
	if !ok {
		t.Fatal("no join in plan")
	}
	// c1.ts < c2.ts spans both sides: must be a post-join filter.
	if _, ok := findNode[*Filter](n); !ok {
		t.Error("expected post-join filter for c1.ts < c2.ts")
	}
	// PK is uid on both sides — same base column.
	pk := j.PartKey()
	if len(pk) != 1 || !pk[0][MakeColumnID("clicks", "uid")] {
		t.Errorf("pk = %v, want {clicks.uid}", pk)
	}
}

func TestBuildExplicitLeftOuterJoin(t *testing.T) {
	n := mustBuild(t, `SELECT lineitem.l_orderkey FROM lineitem
		LEFT OUTER JOIN orders ON o_orderkey = l_orderkey AND o_totalprice > 100
		WHERE o_orderkey IS NULL`)
	j, ok := findNode[*Join](n)
	if !ok {
		t.Fatal("no join")
	}
	if j.Type != sqlparser.LeftOuterJoin {
		t.Errorf("type = %v, want LEFT OUTER", j.Type)
	}
	if j.Residual == nil {
		t.Error("non-equi ON conjunct should be residual")
	}
	// IS NULL is a post-join WHERE filter.
	root := n.(*Project)
	if _, ok := root.Child.(*Filter); !ok {
		t.Errorf("project child is %T, want *Filter", root.Child)
	}
}

func TestBuildAggregateRewriting(t *testing.T) {
	n := mustBuild(t, "SELECT cid, count(*) AS n FROM clicks GROUP BY cid")
	p := n.(*Project)
	agg, ok := p.Child.(*Aggregate)
	if !ok {
		t.Fatalf("project child is %T, want *Aggregate", p.Child)
	}
	if len(agg.GroupBy) != 1 || len(agg.Aggs) != 1 {
		t.Fatalf("agg = %s", agg.Describe())
	}
	if agg.Aggs[0].Kind != exec.AggCountStar {
		t.Errorf("agg kind = %v", agg.Aggs[0].Kind)
	}
	// Output schema: cid int, n int.
	s := p.Schema()
	if s.Cols[0].Name != "cid" || s.Cols[1].Name != "n" || s.Cols[1].Type != exec.TypeInt {
		t.Errorf("schema = %s", s)
	}
	// Project expressions must be rewritten column refs, not the aggregate.
	if sqlparser.ContainsAggregate(p.Exprs[1]) {
		t.Errorf("select expr not rewritten: %s", p.Exprs[1].SQL())
	}
}

func TestBuildGlobalAggregate(t *testing.T) {
	n := mustBuild(t, "SELECT sum(l_extendedprice) / 7.0 AS avg_yearly FROM lineitem")
	agg, ok := findNode[*Aggregate](n)
	if !ok {
		t.Fatal("no aggregate")
	}
	if len(agg.GroupBy) != 0 {
		t.Errorf("group by = %v, want none", agg.GroupBy)
	}
	if len(agg.CandidatePKs()) != 0 {
		t.Error("global aggregate should have no PK candidates")
	}
	if n.Schema().Cols[0].Name != "avg_yearly" || n.Schema().Cols[0].Type != exec.TypeFloat {
		t.Errorf("schema = %s", n.Schema())
	}
}

func TestBuildHaving(t *testing.T) {
	n := mustBuild(t, "SELECT cid FROM clicks GROUP BY cid HAVING count(*) > 10")
	// Filter must sit between Project and Aggregate and reference the
	// rewritten aggregate output.
	p := n.(*Project)
	f, ok := p.Child.(*Filter)
	if !ok {
		t.Fatalf("project child is %T, want *Filter (HAVING)", p.Child)
	}
	if sqlparser.ContainsAggregate(f.Cond) {
		t.Errorf("HAVING not rewritten: %s", f.Cond.SQL())
	}
	if _, ok := f.Child.(*Aggregate); !ok {
		t.Fatalf("filter child is %T, want *Aggregate", f.Child)
	}
}

func TestBuildGroupByAlias(t *testing.T) {
	n := mustBuild(t, "SELECT uid, ts AS ts1, count(*) FROM clicks GROUP BY uid, ts1")
	agg, ok := findNode[*Aggregate](n)
	if !ok {
		t.Fatal("no aggregate")
	}
	if len(agg.GroupBy) != 2 {
		t.Fatalf("group cols = %d, want 2", len(agg.GroupBy))
	}
	// Second group expr must be the substituted ts column.
	if ref, ok := agg.GroupBy[1].(*sqlparser.ColumnRef); !ok || !strings.EqualFold(ref.Name, "ts") {
		t.Errorf("group[1] = %s, want ts", agg.GroupBy[1].SQL())
	}
}

func TestBuildDerivedTable(t *testing.T) {
	n := mustBuild(t, `SELECT s.n FROM (SELECT cid, count(*) AS n FROM clicks GROUP BY cid) AS s WHERE s.n > 3`)
	rb, ok := findNode[*Rebind](n)
	if !ok {
		t.Fatal("no rebind for derived table")
	}
	if rb.Binding != "s" {
		t.Errorf("binding = %q", rb.Binding)
	}
	for _, c := range rb.Schema().Cols {
		if c.Table != "s" {
			t.Errorf("column %s not rebound to s", c.QualifiedName())
		}
	}
}

func TestBuildOrderByLimitDistinct(t *testing.T) {
	n := mustBuild(t, "SELECT DISTINCT cid FROM clicks ORDER BY cid DESC LIMIT 3")
	l, ok := n.(*Limit)
	if !ok {
		t.Fatalf("root is %T, want *Limit", n)
	}
	s, ok := l.Child.(*Sort)
	if !ok {
		t.Fatalf("limit child is %T, want *Sort", l.Child)
	}
	if !s.Keys[0].Desc {
		t.Error("sort key should be DESC")
	}
	if _, ok := findNode[*Aggregate](s); !ok {
		t.Error("DISTINCT should introduce an aggregate")
	}
}

func TestBuildErrors(t *testing.T) {
	tests := []struct {
		name string
		sql  string
		want string
	}{
		{"unknown table", "SELECT a FROM nosuch", "unknown table"},
		{"unknown column", "SELECT nosuch FROM clicks", "unknown column"},
		{"cross join comma", "SELECT 1 FROM clicks, part", "equi-join"},
		{"cross join explicit", "SELECT 1 FROM clicks CROSS JOIN part", "CROSS JOIN"},
		{"join without equi", "SELECT 1 FROM clicks c1 JOIN part ON c1.uid > p_partkey", "equi-join"},
		{"non-grouped column", "SELECT uid, count(*) FROM clicks GROUP BY cid", `column "uid" must appear in the GROUP BY clause or be used in an aggregate function`},
		{"star with group by", "SELECT * FROM clicks GROUP BY cid", "aggregation"},
		{"group by aggregate alias", "SELECT count(*) AS n FROM clicks GROUP BY n", "aggregate"},
		{"no from", "SELECT 1", "FROM"},
		{"order by unknown", "SELECT uid FROM clicks ORDER BY nosuch", "unknown column"},
		{"nested aggregate", "SELECT sum(count(*)) FROM clicks", "nested aggregate"},
		{"duplicate derived columns", "SELECT x.uid FROM (SELECT uid, uid FROM clicks) AS x", "duplicate column"},
		// SUM/AVG and arithmetic want numbers, as in PostgreSQL: a string
		// operand is a planning error, not NULLs or a failure at run time.
		{"sum over text", "SELECT o_custkey, sum(o_orderstatus) FROM orders GROUP BY o_custkey", "SUM over string"},
		{"avg over text", "SELECT avg(p_name) FROM part", "AVG over string"},
		{"sum over text arithmetic", "SELECT sum(o_orderstatus + 1) FROM orders", "arithmetic on string and int"},
		{"arithmetic on text", "SELECT o_orderstatus + 1 FROM orders", "arithmetic on string and int"},
		{"negated text", "SELECT -p_name FROM part", "cannot negate string"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			stmt, err := sqlparser.Parse(tt.sql)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			_, err = Build(stmt, testCatalog())
			if err == nil {
				t.Fatalf("Build(%q) succeeded, want error containing %q", tt.sql, tt.want)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not contain %q", err, tt.want)
			}
		})
	}
}

// TestBuildRejectsIllTypedConditions: a condition whose operands the
// evaluator cannot compare, or that is not a truth value, is a planning
// error, as in PostgreSQL — wherever it sits: a WHERE conjunct pushed down
// to its scan or filtering a join, an ON residual, or HAVING. Planning it
// instead fails the query as a job, and only when a row reaches it.
func TestBuildRejectsIllTypedConditions(t *testing.T) {
	tests := []struct{ sql, want string }{
		{"SELECT o_orderkey FROM orders WHERE o_orderstatus > 2", "WHERE clause: cannot compare string with int"},
		{"SELECT o_orderkey FROM orders WHERE o_totalprice", "WHERE clause: condition is float, not bool"},
		{"SELECT o_custkey FROM orders GROUP BY o_custkey HAVING max(o_orderstatus) > 1", "HAVING: cannot compare string with int"},
		{"SELECT o_orderkey FROM orders WHERE o_orderstatus IN (1, 2)", "WHERE clause: cannot compare string with int"},
		{"SELECT o_orderkey FROM orders WHERE o_orderkey > 1 AND o_custkey", "WHERE clause: condition is int, not bool"},
		{"SELECT o_orderkey FROM orders WHERE NOT o_orderstatus", "WHERE clause: NOT applied to string"},
		{"SELECT o_orderkey FROM orders WHERE o_totalprice BETWEEN 'a' AND 'b'", "WHERE clause: cannot compare float with string"},
		{"SELECT l_orderkey FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > o_orderstatus",
			"WHERE clause: cannot compare float with string"},
		{"SELECT l_orderkey FROM lineitem JOIN orders ON l_orderkey = o_orderkey AND o_orderstatus < l_partkey",
			"ON clause: cannot compare string with int"},
	}
	for _, tt := range tests {
		stmt, err := sqlparser.Parse(tt.sql)
		if err != nil {
			t.Fatalf("parse %q: %v", tt.sql, err)
		}
		if _, err := Build(stmt, testCatalog()); err == nil || err.Error() != tt.want {
			t.Errorf("Build(%q): %v, want %q", tt.sql, err, tt.want)
		}
	}
}

// TestBuildRejectsWhatCannotRun: an expression InferType refuses — a
// function call its signature refuses, an aggregate outside the select
// list, HAVING and ORDER BY, an IN-subquery that is not a whole WHERE
// conjunct — fails planning and names its clause, so no statement plans
// that Compile would refuse or that a task would fail on.
func TestBuildRejectsWhatCannotRun(t *testing.T) {
	for _, tt := range []struct{ sql, want string }{
		{"SELECT lower(cid) FROM clicks", `select list column "_c0": LOWER of int`},
		{"SELECT abs('x') FROM clicks", `select list column "_c0": ABS of string`},
		{"SELECT cid FROM clicks WHERE length(uid) > 1", "WHERE clause: LENGTH of int"},
		{"SELECT abs(uid, cid) FROM clicks", `select list column "_c0": ABS takes 1 argument(s), got 2`},
		{"SELECT coalesce() FROM clicks", `select list column "_c0": COALESCE needs at least one argument`},
		{"SELECT cid FROM clicks WHERE count(*) > 1", "WHERE clause: aggregate COUNT is not allowed here"},
		{"SELECT count(*) FROM clicks GROUP BY count(*)", "GROUP BY COUNT(*): aggregate COUNT is not allowed here"},
		{"SELECT c1.uid FROM clicks c1 JOIN clicks c2 ON c1.uid = c2.uid AND count(*) > 1", "ON clause: aggregate COUNT is not allowed here"},
		{"SELECT cid, count(*) FROM clicks GROUP BY cid HAVING lower(cid) = 'x'", "HAVING: LOWER of int"},
		{"SELECT cid IN (SELECT cid FROM clicks) FROM clicks",
			`select list column "_c0": IN (SELECT ...) is only supported as a top-level WHERE conjunct`},
		{"SELECT cid, count(*) FROM clicks GROUP BY cid HAVING cid IN (SELECT cid FROM clicks)",
			"HAVING: IN (SELECT ...) is only supported as a top-level WHERE conjunct"},
		// A column read above the aggregation that only resolves below it,
		// and an ORDER BY aggregate the select list lacks.
		{"SELECT cid, count(*) FROM clicks GROUP BY cid ORDER BY uid",
			`column "uid" must appear in the GROUP BY clause or be used in an aggregate function`},
		{"SELECT cid, count(*) FROM clicks GROUP BY cid HAVING uid > 1",
			`column "uid" must appear in the GROUP BY clause or be used in an aggregate function`},
		{"SELECT cid, count(*) FROM clicks GROUP BY cid ORDER BY sum(uid)",
			"ORDER BY SUM(uid): an aggregate that is not in the select list is not supported"},
		// An ORDER BY column the projection reads but does not output, above
		// an aggregation or not.
		{"SELECT count(*) FROM clicks GROUP BY cid ORDER BY cid",
			"ORDER BY cid: a column that is not in the select list is not supported"},
		{"SELECT uid FROM clicks ORDER BY ts",
			"ORDER BY ts: a column that is not in the select list is not supported"},
		// A comma join that no WHERE conjunct links by equality.
		{"SELECT c1.uid FROM clicks c1, clicks c2",
			"no equi-join condition links c2 to the preceding tables: a cross join is not supported"},
		// A statement without a table, an explicit cross join, and an
		// explicit join whose ON clause links its tables by no equality.
		{"SELECT 1", "SELECT without FROM is not supported"},
		{"SELECT c1.uid FROM clicks c1 CROSS JOIN clicks c2", "CROSS JOIN is not supported"},
		{"SELECT c1.uid FROM clicks c1 JOIN clicks c2 ON c1.ts < c2.ts",
			"JOIN without an equi-join condition is not supported"},
		// A LIMIT runs only as the final ORDER BY's cut: not without one,
		// and not inside a derived table.
		{"SELECT uid FROM clicks LIMIT 2",
			"a LIMIT that is not directly above the final ORDER BY is not supported"},
		{"SELECT x.uid FROM (SELECT uid FROM clicks ORDER BY uid LIMIT 5) AS x",
			"derived table x: a LIMIT that is not directly above the final ORDER BY is not supported"},
	} {
		stmt, err := sqlparser.Parse(tt.sql)
		if err != nil {
			t.Fatalf("parse %q: %v", tt.sql, err)
		}
		_, err = Build(stmt, testCatalog())
		if fmt.Sprint(err) != tt.want {
			t.Errorf("Build(%q): %v, want %q", tt.sql, err, tt.want)
		}
		// Refusals of valid SQL, and only they, wrap ErrUnsupported.
		if unsupported := strings.HasSuffix(tt.want, "is not supported"); errors.Is(err, ErrUnsupported) != unsupported {
			t.Errorf("Build(%q): errors.Is(err, ErrUnsupported) = %v, want %v", tt.sql, !unsupported, unsupported)
		}
	}
	// A whole WHERE conjunct still becomes a semi-join.
	mustBuild(t, "SELECT cid FROM clicks WHERE uid IN (SELECT uid FROM clicks WHERE page > 1)")
}

func TestFormatRendersTree(t *testing.T) {
	n := mustBuild(t, "SELECT cid, count(*) FROM clicks WHERE uid > 0 GROUP BY cid")
	out := Format(n)
	for _, want := range []string{"Project", "Aggregate", "Filter", "Scan clicks"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
	// Indentation deepens down the tree.
	if !strings.Contains(out, "\n  Aggregate") {
		t.Errorf("expected indented Aggregate:\n%s", out)
	}
}

func TestBaseTables(t *testing.T) {
	n := mustBuild(t, `SELECT c1.uid FROM clicks c1, clicks c2, part
		WHERE c1.uid = c2.uid AND c1.cid = p_partkey`)
	tables := BaseTables(n)
	if !tables["clicks"] || !tables["part"] || len(tables) != 2 {
		t.Errorf("BaseTables = %v", tables)
	}
}
