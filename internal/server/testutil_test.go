package server

import (
	"context"
	"sort"
	"strings"
	"sync"
	"testing"

	"ysmart/internal/datagen"
	"ysmart/internal/dbms"
	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/plan"
	"ysmart/internal/queries"
	"ysmart/internal/sqlparser"
	"ysmart/internal/translator"
)

// The shared test fixture: one small deterministic workload data set,
// generated once per test binary (datagen is seeded, so every caller sees
// identical rows).
var (
	fixtureOnce   sync.Once
	fixtureRows   map[string][]exec.Row
	fixtureLines  map[string][]string
	fixtureOracle map[string][]string // sql -> sorted expected lines
)

func fixture(t *testing.T) (map[string][]exec.Row, map[string][]string) {
	t.Helper()
	fixtureOnce.Do(func() {
		cfg := datagen.TPCHConfig{Orders: 150, Parts: 40, Customers: 50, Suppliers: 15, Seed: 1}
		tpch, err := datagen.TPCH(cfg)
		if err != nil {
			panic(err)
		}
		clicks, err := datagen.Clickstream(datagen.DefaultClicks())
		if err != nil {
			panic(err)
		}
		fixtureRows = make(map[string][]exec.Row, len(tpch)+len(clicks))
		for name, rows := range tpch {
			fixtureRows[name] = rows
		}
		for name, rows := range clicks {
			fixtureRows[name] = rows
		}
		fixtureLines = EncodeTables(fixtureRows)
		fixtureOracle = map[string][]string{}
	})
	return fixtureRows, fixtureLines
}

// oracleLines runs sql on the single-node DBMS executor over the fixture and
// returns the sorted codec lines — the byte-identity reference.
func oracleLines(t *testing.T, sql string) []string {
	t.Helper()
	rows, _ := fixture(t)
	if lines, ok := fixtureOracle[sql]; ok {
		return lines
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("oracle parse: %v", err)
	}
	root, err := plan.Build(stmt, queries.Catalog())
	if err != nil {
		t.Fatalf("oracle plan: %v", err)
	}
	db := dbms.NewDatabase()
	for name, tableRows := range rows {
		schema, ok := queries.Catalog().Table(name)
		if !ok {
			t.Fatalf("oracle: no schema for %s", name)
		}
		db.Load(name, schema, tableRows)
	}
	res, err := dbms.Execute(root, db)
	if err != nil {
		t.Fatalf("oracle execute: %v", err)
	}
	lines := dbms.SortedLines(res.Rows)
	fixtureOracle[sql] = lines
	return lines
}

// runPlan executes a cached plan on a fresh engine preloaded with the
// fixture tables and returns the sorted codec lines of its result.
func runPlan(t *testing.T, p *Plan) []string {
	t.Helper()
	lines, _ := runPlanFiltered(t, p)
	return lines
}

// runPlanFiltered is runPlan that also returns how many input lines the
// chain's mappers filtered early (JobStats.MapRecordsFiltered).
func runPlanFiltered(t *testing.T, p *Plan) ([]string, int64) {
	t.Helper()
	_, lines := fixture(t)
	eng, err := mapreduce.NewEngine(mapreduce.NewDFS(), mapreduce.SmallCluster())
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	for name, tableLines := range lines {
		eng.DFS().Write(translator.TablePath(name), tableLines)
	}
	res, err := translator.Run(context.Background(), p.Translation, eng, nil, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rows, err := res.Rows()
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	var filtered int64
	for _, js := range res.Stats.Jobs {
		filtered += js.MapRecordsFiltered
	}
	return dbms.SortedLines(rows), filtered
}

// wireLines renders a wire result the way the oracle comparison in the load
// generator does: server text format cells joined by tabs, sorted.
func wireLines(res *QueryResult) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		cells := make([]string, len(row))
		for j, c := range row {
			if c == nil {
				cells[j] = "NULL"
			} else {
				cells[j] = *c
			}
		}
		out[i] = strings.Join(cells, "\t")
	}
	sort.Strings(out)
	return out
}

// oracleWireLines renders the oracle's rows in the server's wire text format
// for comparison against wireLines output.
func oracleWireLines(t *testing.T, sql string) []string {
	t.Helper()
	rows, _ := fixture(t)
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("oracle parse: %v", err)
	}
	root, err := plan.Build(stmt, queries.Catalog())
	if err != nil {
		t.Fatalf("oracle plan: %v", err)
	}
	db := dbms.NewDatabase()
	for name, tableRows := range rows {
		schema, _ := queries.Catalog().Table(name)
		db.Load(name, schema, tableRows)
	}
	res, err := dbms.Execute(root, db)
	if err != nil {
		t.Fatalf("oracle execute: %v", err)
	}
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			if v.IsNull() {
				cells[j] = "NULL"
			} else {
				cells[j] = TextValue(v)
			}
		}
		out[i] = strings.Join(cells, "\t")
	}
	sort.Strings(out)
	return out
}

func diffLines(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d differs\n  got:  %s\n  want: %s", label, i, got[i], want[i])
		}
	}
}
