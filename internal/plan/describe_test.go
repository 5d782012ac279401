package plan

import (
	"strings"
	"testing"

	"ysmart/internal/sqlparser"
)

// Display-surface coverage: Describe/String methods are part of the explain
// UX, so their content is pinned here.

func TestNodeDescribe(t *testing.T) {
	root := mustBuild(t, `
		SELECT s.n FROM
		  (SELECT cid, count(*) AS n FROM clicks GROUP BY cid) AS s
		ORDER BY s.n DESC LIMIT 7`)
	texts := map[string]bool{}
	Walk(root, func(n Node) { texts[n.Describe()] = true })

	var all []string
	for txt := range texts {
		all = append(all, txt)
	}
	joined := strings.Join(all, "\n")
	for _, want := range []string{"Scan clicks", "Aggregate", "As s", "Sort n DESC", "Limit 7", "Project"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Describe output missing %q:\n%s", want, joined)
		}
	}
}

func TestScanDescribeWithAlias(t *testing.T) {
	root := mustBuild(t, "SELECT c.uid FROM clicks AS c")
	s, _ := findNode[*Scan](root)
	if got := s.Describe(); got != "Scan clicks AS c" {
		t.Errorf("Describe = %q", got)
	}
}

func TestJoinDescribeWithResidual(t *testing.T) {
	root := mustBuild(t, `SELECT lineitem.l_orderkey FROM lineitem
		LEFT OUTER JOIN orders ON o_orderkey = l_orderkey AND o_totalprice > 5`)
	j, _ := findNode[*Join](root)
	d := j.Describe()
	if !strings.Contains(d, "LEFT OUTER JOIN") || !strings.Contains(d, "o_totalprice") {
		t.Errorf("Describe = %q", d)
	}
}

func TestLimitNodeAccessors(t *testing.T) {
	root := mustBuild(t, "SELECT uid FROM clicks ORDER BY uid LIMIT 2")
	l, ok := root.(*Limit)
	if !ok {
		t.Fatalf("root is %T", root)
	}
	if l.Schema().Len() != 1 || len(l.Lineage()) != 1 || len(l.Children()) != 1 {
		t.Error("Limit accessors inconsistent")
	}
}

func TestPartKeyAndComponentString(t *testing.T) {
	pk := PartKey{
		NewKeyComponent(cid("lineitem", "l_partkey"), cid("part", "p_partkey")),
		NewKeyComponent(),
	}
	got := pk.String()
	if !strings.Contains(got, "lineitem.l_partkey=part.p_partkey") || !strings.Contains(got, "{}") {
		t.Errorf("String = %q", got)
	}
	if (PartKey{}).String() != "(none)" {
		t.Errorf("empty PartKey String = %q", (PartKey{}).String())
	}
}

func TestJoinTypeString(t *testing.T) {
	for jt, want := range map[sqlparser.JoinType]string{
		sqlparser.InnerJoin:      "JOIN",
		sqlparser.LeftOuterJoin:  "LEFT OUTER JOIN",
		sqlparser.RightOuterJoin: "RIGHT OUTER JOIN",
		sqlparser.FullOuterJoin:  "FULL OUTER JOIN",
		sqlparser.CrossJoin:      "CROSS JOIN",
	} {
		if got := jt.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", jt, got, want)
		}
	}
}

func TestNewJoinValidation(t *testing.T) {
	root := mustBuild(t, "SELECT uid FROM clicks")
	scan, _ := findNode[*Scan](root)
	if _, err := NewJoin(sqlparser.InnerJoin, scan, scan, []int{0}, []int{0, 1}, nil); err == nil {
		t.Error("mismatched key lengths should fail")
	}
	if _, err := NewJoin(sqlparser.InnerJoin, scan, scan, nil, nil, nil); err == nil {
		t.Error("empty keys should fail")
	}
}

// TestRewriteExprCoversAllNodeKinds pushes a substitution through every
// expression node type.
func TestRewriteExprCoversAllNodeKinds(t *testing.T) {
	stmt, err := sqlparser.Parse(`SELECT
		CASE WHEN x IS NULL THEN 1 WHEN x BETWEEN lo AND hi THEN 2 ELSE 3 END,
		x IN (1, y, 3),
		NOT (x > 0),
		upper(s),
		x IS NOT NULL,
		x NOT BETWEEN 1 AND 2,
		y NOT IN (4, 5)
		FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	subs := map[string]sqlparser.Expr{"x": &sqlparser.ColumnRef{Name: "z"}}
	for i, item := range stmt.Select {
		out := RewriteExpr(item.Expr, subs)
		if strings.Contains(out.SQL(), "x") {
			t.Errorf("item %d: substitution missed: %s", i, out.SQL())
		}
		// Structure is otherwise preserved.
		if len(out.SQL()) != len(item.Expr.SQL()) {
			t.Errorf("item %d: length changed: %s -> %s", i, item.Expr.SQL(), out.SQL())
		}
	}
}
