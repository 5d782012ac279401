package ysmart_test

import (
	"reflect"
	"testing"

	"ysmart"
	"ysmart/internal/dbms"
)

// reuseCase is one query over t(k INT, v INT) run through a reuse store
// under two contents of t whose sums differ: s = 10 over a, s = 99 over b.
type reuseCase struct {
	t      *testing.T
	schema *ysmart.Schema
	q      *ysmart.Query
	tr     *ysmart.Translation
	a, b   []ysmart.Row
}

func newReuseCase(t *testing.T) *reuseCase {
	t.Helper()
	schema := ysmart.NewSchema(
		ysmart.Column{Name: "k", Type: ysmart.TypeInt},
		ysmart.Column{Name: "v", Type: ysmart.TypeInt},
	)
	q, err := ysmart.Parse("SELECT k, sum(v) AS s FROM t GROUP BY k", ysmart.Catalog{"t": schema})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := q.Translate(ysmart.YSmart, ysmart.Options{QueryName: "reuse"})
	if err != nil {
		t.Fatal(err)
	}
	row := func(k, v int64) ysmart.Row { return ysmart.Row{ysmart.Int(k), ysmart.Int(v)} }
	return &reuseCase{
		t: t, schema: schema, q: q, tr: tr,
		a: []ysmart.Row{row(1, 4), row(1, 6)},
		b: []ysmart.Row{row(1, 90), row(1, 9)},
	}
}

// runtime returns a fresh runtime holding rows as t.
func (c *reuseCase) runtime(rows []ysmart.Row) *ysmart.Runtime {
	c.t.Helper()
	rt, err := ysmart.NewRuntime(ysmart.SmallCluster())
	if err != nil {
		c.t.Fatal(err)
	}
	rt.LoadTable("t", rows)
	return rt
}

// run executes the query on rt through store and checks its rows against
// the DBMS oracle over rows — the t that rt holds — and how many jobs
// reuse skipped (the query is one job: 1 is a served artifact).
func (c *reuseCase) run(step string, rt *ysmart.Runtime, store *ysmart.ReuseStore, rows []ysmart.Row, wantSkipped int) {
	c.t.Helper()
	res, err := rt.Run(c.tr, ysmart.WithReuse(store))
	if err != nil {
		c.t.Fatalf("%s: %v", step, err)
	}
	db := dbms.NewDatabase()
	db.Load("t", c.schema, rows)
	oracle, err := dbms.Execute(c.q.Plan(), db)
	if err != nil {
		c.t.Fatal(err)
	}
	if got, want := dbms.SortedLines(res.Rows), dbms.SortedLines(oracle.Rows); !reflect.DeepEqual(got, want) {
		c.t.Errorf("%s: rows %q, want the oracle's %q over this runtime's t", step, got, want)
	}
	if res.Reuse.Skipped != wantSkipped {
		c.t.Errorf("%s: %d job(s) skipped, want %d", step, res.Reuse.Skipped, wantSkipped)
	}
}

// TestReuseSharedStoreTwoRuntimes: two runtimes share one store and hold
// different t. Neither is served the other's artifact; a third runtime
// holding the same lines as the first is.
func TestReuseSharedStoreTwoRuntimes(t *testing.T) {
	c := newReuseCase(t)
	store := ysmart.NewReuseStore(0, nil)
	rtA, rtB := c.runtime(c.a), c.runtime(c.b)
	c.run("runtime A", rtA, store, c.a, 0)
	c.run("runtime B after A", rtB, store, c.b, 0)
	c.run("runtime A after B", rtA, store, c.a, 0)
	c.run("fresh runtime holding A's lines", c.runtime(c.a), store, c.a, 1)
}

// TestReuseTwoStoresOneRuntime: one runtime runs with store S1, then S2,
// then reloads t with other lines and runs with S1 again. S1's artifact of
// the old t is not served; once recomputed, the new one is.
func TestReuseTwoStoresOneRuntime(t *testing.T) {
	c := newReuseCase(t)
	s1, s2 := ysmart.NewReuseStore(0, nil), ysmart.NewReuseStore(0, nil)
	rt := c.runtime(c.a)
	c.run("S1", rt, s1, c.a, 0)
	c.run("S2", rt, s2, c.a, 0)
	rt.LoadTable("t", c.b)
	c.run("S1 after reload", rt, s1, c.b, 0)
	c.run("S2 after reload", rt, s2, c.b, 0)
	c.run("S1 warm after reload", rt, s1, c.b, 1)
}
