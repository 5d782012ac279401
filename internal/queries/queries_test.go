package queries

import (
	"strings"
	"testing"

	"ysmart/internal/plan"
	"ysmart/internal/sqlparser"
)

func TestAllNamedQueriesPlan(t *testing.T) {
	for name, sql := range Named() {
		t.Run(name, func(t *testing.T) {
			root, err := Plan(sql)
			if err != nil {
				t.Fatalf("Plan: %v", err)
			}
			if root.Schema().Len() == 0 {
				t.Error("empty output schema")
			}
		})
	}
}

func TestNamedCoversPaperWorkload(t *testing.T) {
	named := Named()
	for _, want := range []string{"Q17", "Q18", "Q21", "Q21-full", "Q-CSA", "Q-AGG"} {
		if _, ok := named[want]; !ok {
			t.Errorf("missing %s", want)
		}
	}
}

func TestCatalogHasAllReferencedTables(t *testing.T) {
	cat := Catalog()
	for _, table := range []string{"lineitem", "orders", "part", "customer", "supplier", "nation", "clicks"} {
		s, ok := cat.Table(table)
		if !ok {
			t.Errorf("missing table %s", table)
			continue
		}
		if s.Len() == 0 {
			t.Errorf("table %s has no columns", table)
		}
	}
	// Case-insensitive lookup.
	if _, ok := cat.Table("LINEITEM"); !ok {
		t.Error("catalog lookup should be case-insensitive")
	}
	if _, ok := cat.Table("nope"); ok {
		t.Error("unknown table should not resolve")
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := Plan("NOT SQL AT ALL"); err == nil || !strings.Contains(err.Error(), "parse") {
		t.Errorf("err = %v, want parse error", err)
	}
	if _, err := Plan("SELECT x FROM nosuch"); err == nil || !strings.Contains(err.Error(), "plan") {
		t.Errorf("err = %v, want plan error", err)
	}
}

// TestQCSAMatchesPaperPlanShape pins the Fig. 2(a) operation structure.
func TestQCSAMatchesPaperPlanShape(t *testing.T) {
	root := mustPlan(t, QCSA)
	var joins, aggs int
	plan.Walk(root, func(n plan.Node) {
		switch n.(type) {
		case *plan.Join:
			joins++
		case *plan.Aggregate:
			aggs++
		}
	})
	if joins != 2 || aggs != 4 {
		t.Errorf("joins=%d aggs=%d, want 2 joins and 4 aggregations (Fig. 2(a))", joins, aggs)
	}
}

// TestQ21UsesLeftOuterJoin pins the appendix sub-tree's outer join.
func TestQ21UsesLeftOuterJoin(t *testing.T) {
	root := mustPlan(t, Q21)
	found := false
	plan.Walk(root, func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok && j.Type == sqlparser.LeftOuterJoin {
			found = true
		}
	})
	if !found {
		t.Error("Q21 must contain a left outer join")
	}
}

func mustPlan(t *testing.T, sql string) plan.Node {
	t.Helper()
	root, err := Plan(sql)
	if err != nil {
		t.Fatal(err)
	}
	return root
}
