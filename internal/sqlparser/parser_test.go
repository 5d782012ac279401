package sqlparser

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, sql string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return stmt
}

func TestParseSimpleSelect(t *testing.T) {
	stmt := mustParse(t, "SELECT a, b AS bee FROM t WHERE a > 1")
	if len(stmt.Select) != 2 {
		t.Fatalf("select list len = %d, want 2", len(stmt.Select))
	}
	if stmt.Select[1].Alias != "bee" {
		t.Errorf("alias = %q, want bee", stmt.Select[1].Alias)
	}
	bt, ok := stmt.From[0].(*BaseTable)
	if !ok || bt.Name != "t" {
		t.Fatalf("from = %#v, want base table t", stmt.From[0])
	}
	cmp, ok := stmt.Where.(*BinaryExpr)
	if !ok || cmp.Op != OpGt {
		t.Fatalf("where = %#v, want a > 1", stmt.Where)
	}
}

func TestParseStarVariants(t *testing.T) {
	stmt := mustParse(t, "SELECT *, t.* FROM t")
	if !stmt.Select[0].Star || stmt.Select[0].StarQualifier != "" {
		t.Errorf("item 0 = %+v, want bare star", stmt.Select[0])
	}
	if !stmt.Select[1].Star || stmt.Select[1].StarQualifier != "t" {
		t.Errorf("item 1 = %+v, want t.*", stmt.Select[1])
	}
}

func TestParseImplicitAlias(t *testing.T) {
	stmt := mustParse(t, "SELECT a x FROM t u")
	if stmt.Select[0].Alias != "x" {
		t.Errorf("column alias = %q, want x", stmt.Select[0].Alias)
	}
	bt := stmt.From[0].(*BaseTable)
	if bt.Alias != "u" {
		t.Errorf("table alias = %q, want u", bt.Alias)
	}
}

func TestParseGroupHavingOrderLimit(t *testing.T) {
	stmt := mustParse(t, `
		SELECT cid, count(*) AS n FROM clicks
		GROUP BY cid HAVING count(*) > 10
		ORDER BY n DESC, cid LIMIT 5`)
	if len(stmt.GroupBy) != 1 {
		t.Fatalf("group by len = %d, want 1", len(stmt.GroupBy))
	}
	if stmt.Having == nil {
		t.Fatal("missing HAVING")
	}
	if len(stmt.OrderBy) != 2 || !stmt.OrderBy[0].Desc || stmt.OrderBy[1].Desc {
		t.Fatalf("order by = %+v, want [n DESC, cid ASC]", stmt.OrderBy)
	}
	if stmt.Limit != 5 {
		t.Errorf("limit = %d, want 5", stmt.Limit)
	}
}

func TestParseExplicitJoins(t *testing.T) {
	tests := []struct {
		sql  string
		want JoinType
	}{
		{"SELECT * FROM a JOIN b ON a.x = b.x", InnerJoin},
		{"SELECT * FROM a INNER JOIN b ON a.x = b.x", InnerJoin},
		{"SELECT * FROM a LEFT JOIN b ON a.x = b.x", LeftOuterJoin},
		{"SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.x", LeftOuterJoin},
		{"SELECT * FROM a RIGHT OUTER JOIN b ON a.x = b.x", RightOuterJoin},
		{"SELECT * FROM a FULL OUTER JOIN b ON a.x = b.x", FullOuterJoin},
	}
	for _, tt := range tests {
		stmt := mustParse(t, tt.sql)
		j, ok := stmt.From[0].(*Join)
		if !ok {
			t.Fatalf("%s: from is %T, want *Join", tt.sql, stmt.From[0])
		}
		if j.Type != tt.want {
			t.Errorf("%s: join type %v, want %v", tt.sql, j.Type, tt.want)
		}
		if j.On == nil {
			t.Errorf("%s: missing ON", tt.sql)
		}
	}
}

func TestParseJoinChainLeftAssociative(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON a.x = c.x")
	outer, ok := stmt.From[0].(*Join)
	if !ok {
		t.Fatalf("outer is %T", stmt.From[0])
	}
	inner, ok := outer.Left.(*Join)
	if !ok {
		t.Fatalf("left of outer is %T, want *Join (left-assoc)", outer.Left)
	}
	if bt := inner.Left.(*BaseTable); bt.Name != "a" {
		t.Errorf("innermost left = %s, want a", bt.Name)
	}
	if bt := outer.Right.(*BaseTable); bt.Name != "c" {
		t.Errorf("outer right = %s, want c", bt.Name)
	}
}

func TestParseCommaJoin(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM lineitem, part WHERE p_partkey = l_partkey")
	if len(stmt.From) != 2 {
		t.Fatalf("from len = %d, want 2", len(stmt.From))
	}
}

func TestParseSubquery(t *testing.T) {
	stmt := mustParse(t, `SELECT avg(x) FROM (SELECT a AS x FROM t) AS s`)
	sq, ok := stmt.From[0].(*Subquery)
	if !ok {
		t.Fatalf("from is %T, want *Subquery", stmt.From[0])
	}
	if sq.Alias != "s" {
		t.Errorf("alias = %q, want s", sq.Alias)
	}
	if len(sq.Select.Select) != 1 {
		t.Errorf("inner select list len = %d, want 1", len(sq.Select.Select))
	}
}

func TestParseSubqueryRequiresAlias(t *testing.T) {
	_, err := Parse("SELECT * FROM (SELECT a FROM t)")
	if err == nil || !strings.Contains(err.Error(), "alias") {
		t.Fatalf("err = %v, want alias error", err)
	}
}

func TestParseAggregates(t *testing.T) {
	stmt := mustParse(t, `SELECT count(*), count(distinct l_suppkey), sum(x), avg(y), min(z), max(z) FROM t`)
	want := []struct {
		name     string
		star     bool
		distinct bool
	}{
		{"COUNT", true, false},
		{"COUNT", false, true},
		{"SUM", false, false},
		{"AVG", false, false},
		{"MIN", false, false},
		{"MAX", false, false},
	}
	for i, w := range want {
		f, ok := stmt.Select[i].Expr.(*FuncCall)
		if !ok {
			t.Fatalf("item %d is %T, want *FuncCall", i, stmt.Select[i].Expr)
		}
		if f.Name != w.name || f.Star != w.star || f.Distinct != w.distinct {
			t.Errorf("item %d = %s star=%v distinct=%v, want %+v", i, f.Name, f.Star, f.Distinct, w)
		}
		if !f.IsAggregate() {
			t.Errorf("item %d not recognized as aggregate", i)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	tests := []struct {
		sql  string
		want string
	}{
		{"SELECT a + b * c FROM t", "(a + (b * c))"},
		{"SELECT (a + b) * c FROM t", "((a + b) * c)"},
		{"SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3", "((x = 1) OR ((y = 2) AND (z = 3)))"},
		{"SELECT a FROM t WHERE NOT x = 1 AND y = 2", "((NOT (x = 1)) AND (y = 2))"},
		{"SELECT 0.2 * avg(q) FROM t", "(0.2 * AVG(q))"},
		{"SELECT count(*) - 2 FROM t", "(COUNT(*) - 2)"},
		{"SELECT a FROM t WHERE x <> y", "(x <> y)"},
		{"SELECT a FROM t WHERE x != y", "(x <> y)"},
	}
	for _, tt := range tests {
		stmt := mustParse(t, tt.sql)
		var got string
		if stmt.Where != nil {
			got = stmt.Where.SQL()
		} else {
			got = stmt.Select[0].Expr.SQL()
		}
		if got != tt.want {
			t.Errorf("%s: rendered %s, want %s", tt.sql, got, tt.want)
		}
	}
}

func TestParseNegativeNumberFolding(t *testing.T) {
	stmt := mustParse(t, "SELECT -5, -2.5 FROM t")
	if lit := stmt.Select[0].Expr.(*Literal); lit.Kind != LitInt || lit.Int != -5 {
		t.Errorf("item 0 = %+v, want int -5", lit)
	}
	if lit := stmt.Select[1].Expr.(*Literal); lit.Kind != LitFloat || lit.Float != -2.5 {
		t.Errorf("item 1 = %+v, want float -2.5", lit)
	}
}

// TestParseExponentLiterals: a number with an exponent is a float literal,
// wherever a number may stand; an exponent marker with no digit after it is
// not part of the number, and a value out of float range is an error.
func TestParseExponentLiterals(t *testing.T) {
	for _, c := range []struct {
		sql  string
		want float64
	}{
		{"SELECT 1e5 FROM t", 1e5},
		{"SELECT 2.5E-3 FROM t", 2.5e-3},
		{"SELECT .5e+2 FROM t", 50},
		{"SELECT -1E2 FROM t", -100},
		{"SELECT 1e200 FROM t", 1e200},
	} {
		stmt := mustParse(t, c.sql)
		if lit, ok := stmt.Select[0].Expr.(*Literal); !ok || lit.Kind != LitFloat || lit.Float != c.want || stmt.Select[0].Alias != "" {
			t.Errorf("%s: item %+v, want the float %v with no alias", c.sql, stmt.Select[0], c.want)
		}
		again := mustParse(t, stmt.SQL())
		if lit := again.Select[0].Expr.(*Literal); lit.Float != c.want {
			t.Errorf("%s renders as %s, which reads %v", c.sql, stmt.SQL(), lit.Float)
		}
	}
	where := mustParse(t, "SELECT a FROM t WHERE a > 1e5")
	if got := where.Where.SQL(); got != "(a > 100000.0)" {
		t.Errorf("WHERE a > 1e5 parses as %s", got)
	}
	for _, c := range []struct{ sql, alias string }{
		{"SELECT 1e FROM t", "e"},
		{"SELECT 1ex FROM t", "ex"},
	} {
		stmt := mustParse(t, c.sql)
		if lit, ok := stmt.Select[0].Expr.(*Literal); !ok || lit.Kind != LitInt || lit.Int != 1 || stmt.Select[0].Alias != c.alias {
			t.Errorf("%s: item %+v, want 1 AS %s", c.sql, stmt.Select[0], c.alias)
		}
	}
	for _, sql := range []string{"SELECT 1e+ FROM t", "SELECT 1e400 FROM t", "SELECT a FROM t WHERE a > 2E-x"} {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", sql)
		}
	}
}

func TestParseIsNullBetweenIn(t *testing.T) {
	stmt := mustParse(t, `SELECT a FROM t WHERE x IS NULL AND y IS NOT NULL
		AND z BETWEEN 1 AND 10 AND w NOT BETWEEN 2 AND 3
		AND v IN (1, 2, 3) AND u NOT IN ('a', 'b')`)
	conjs := SplitConjuncts(stmt.Where)
	if len(conjs) != 6 {
		t.Fatalf("conjuncts = %d, want 6", len(conjs))
	}
	if e := conjs[0].(*IsNullExpr); e.Not {
		t.Error("conj 0 should be IS NULL")
	}
	if e := conjs[1].(*IsNullExpr); !e.Not {
		t.Error("conj 1 should be IS NOT NULL")
	}
	if e := conjs[2].(*BetweenExpr); e.Not {
		t.Error("conj 2 should be BETWEEN")
	}
	if e := conjs[3].(*BetweenExpr); !e.Not {
		t.Error("conj 3 should be NOT BETWEEN")
	}
	if e := conjs[4].(*InListExpr); e.Not || len(e.Items) != 3 {
		t.Errorf("conj 4 = %+v, want IN with 3 items", conjs[4])
	}
	if e := conjs[5].(*InListExpr); !e.Not || len(e.Items) != 2 {
		t.Errorf("conj 5 = %+v, want NOT IN with 2 items", conjs[5])
	}
}

func TestParseCase(t *testing.T) {
	stmt := mustParse(t, "SELECT CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' ELSE 'zero' END FROM t")
	c, ok := stmt.Select[0].Expr.(*CaseExpr)
	if !ok {
		t.Fatalf("item is %T, want *CaseExpr", stmt.Select[0].Expr)
	}
	if len(c.Whens) != 2 || c.Else == nil {
		t.Errorf("case = %+v, want 2 whens and else", c)
	}
}

func TestParseDistinct(t *testing.T) {
	stmt := mustParse(t, "SELECT DISTINCT a FROM t")
	if !stmt.Distinct {
		t.Error("Distinct not set")
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		sql  string
	}{
		{"empty", ""},
		{"missing from item", "SELECT a FROM"},
		{"trailing garbage", "SELECT a FROM t xyzzy plugh"},
		{"missing on", "SELECT * FROM a JOIN b"},
		{"bad limit", "SELECT a FROM t LIMIT x"},
		{"unclosed paren", "SELECT (a FROM t"},
		{"lone not", "SELECT a FROM t WHERE x NOT y"},
		{"aggregate arity", "SELECT sum(a, b) FROM t"},
		{"keyword as expr", "SELECT a FROM t WHERE GROUP"},
		{"case without when", "SELECT CASE END FROM t"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(tt.sql); err == nil {
				t.Errorf("Parse(%q) succeeded, want error", tt.sql)
			}
		})
	}
}

// The four paper workload queries must all parse.

const paperQCSA = `
SELECT avg(pageview_count) FROM
 (SELECT c.uid, mp.ts1, (count(*) - 2) AS pageview_count
  FROM clicks AS c,
   (SELECT uid, max(ts1) AS ts1, ts2
    FROM (SELECT c1.uid, c1.ts AS ts1, min(c2.ts) AS ts2
          FROM clicks AS c1, clicks AS c2
          WHERE c1.uid = c2.uid AND c1.ts < c2.ts
            AND c1.cid = 1 AND c2.cid = 2
          GROUP BY c1.uid, c1.ts) AS cp
    GROUP BY uid, ts2) AS mp
  WHERE c.uid = mp.uid AND c.ts >= mp.ts1 AND c.ts <= mp.ts2
  GROUP BY c.uid, mp.ts1) AS pageview_counts;`

const paperQ17 = `
SELECT sum(l_extendedprice) / 7.0 AS avg_yearly
FROM (SELECT l_partkey, 0.2 * avg(l_quantity) AS t1
      FROM lineitem
      GROUP BY l_partkey) AS inner_t,
     (SELECT l_partkey, l_quantity, l_extendedprice
      FROM lineitem, part
      WHERE p_partkey = l_partkey) AS outer_t
WHERE outer_t.l_partkey = inner_t.l_partkey
  AND outer_t.l_quantity < inner_t.t1;`

const paperQ21Subtree = `
SELECT sq12.l_suppkey FROM
 (SELECT sq1.l_orderkey, sq1.l_suppkey FROM
   (SELECT l_suppkey, l_orderkey
    FROM lineitem, orders
    WHERE o_orderkey = l_orderkey
      AND l_receiptdate > l_commitdate
      AND o_orderstatus = 'F') AS sq1,
   (SELECT l_orderkey,
           count(distinct l_suppkey) AS cs,
           max(l_suppkey) AS ms
    FROM lineitem
    GROUP BY l_orderkey) AS sq2
  WHERE sq1.l_orderkey = sq2.l_orderkey
    AND ((sq2.cs > 1) OR
         ((sq2.cs = 1) AND (sq1.l_suppkey <> sq2.ms)))
 ) AS sq12
 LEFT OUTER JOIN
 (SELECT l_orderkey,
         count(distinct l_suppkey) AS cs,
         max(l_suppkey) AS ms
  FROM lineitem
  WHERE l_receiptdate > l_commitdate
  GROUP BY l_orderkey) AS sq3
 ON sq12.l_orderkey = sq3.l_orderkey
WHERE (sq3.cs IS NULL) OR
      ((sq3.cs = 1) AND (sq12.l_suppkey = sq3.ms))`

func TestParsePaperQueries(t *testing.T) {
	tests := []struct {
		name string
		sql  string
	}{
		{"Q-CSA", paperQCSA},
		{"Q17", paperQ17},
		{"Q21-subtree", paperQ21Subtree},
		{"Q-AGG", "SELECT cid, count(*) FROM clicks GROUP BY cid"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			stmt := mustParse(t, tt.sql)
			// Round-trip: the rendered SQL must parse again to the same shape.
			again := mustParse(t, stmt.SQL())
			if again.SQL() != stmt.SQL() {
				t.Errorf("round-trip mismatch:\n first: %s\nsecond: %s", stmt.SQL(), again.SQL())
			}
		})
	}
}

func TestWalkAndColumnRefs(t *testing.T) {
	stmt := mustParse(t, "SELECT a FROM t WHERE x + y > f(z) AND w BETWEEN lo AND hi")
	refs := ColumnRefs(stmt.Where)
	var names []string
	for _, r := range refs {
		names = append(names, r.Name)
	}
	got := strings.Join(names, ",")
	if got != "x,y,z,w,lo,hi" {
		t.Errorf("ColumnRefs order = %s, want x,y,z,w,lo,hi", got)
	}
}

func TestContainsAggregate(t *testing.T) {
	stmt := mustParse(t, "SELECT count(*) - 2, a + 1 FROM t")
	if !ContainsAggregate(stmt.Select[0].Expr) {
		t.Error("count(*)-2 should contain aggregate")
	}
	if ContainsAggregate(stmt.Select[1].Expr) {
		t.Error("a+1 should not contain aggregate")
	}
}

func TestSplitJoinConjunctsRoundTrip(t *testing.T) {
	stmt := mustParse(t, "SELECT a FROM t WHERE p = 1 AND q = 2 AND r = 3")
	conjs := SplitConjuncts(stmt.Where)
	if len(conjs) != 3 {
		t.Fatalf("len = %d, want 3", len(conjs))
	}
	rebuilt := JoinConjuncts(conjs)
	if !EqualExpr(rebuilt, stmt.Where) {
		t.Errorf("rebuilt %s != original %s", rebuilt.SQL(), stmt.Where.SQL())
	}
	if JoinConjuncts(nil) != nil {
		t.Error("JoinConjuncts(nil) should be nil")
	}
}
