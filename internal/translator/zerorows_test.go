package translator

import (
	"fmt"
	"testing"

	"ysmart/internal/datagen"
	"ysmart/internal/dbms"
	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/plan"
	"ysmart/internal/sqlparser"
)

// TestGlobalAggregateOverNoRows: an aggregate without GROUP BY yields one
// row even when its selection keeps no row (SQL), in every mode at one and
// eight workers, like the DBMS oracle — through a combiner's partials and
// through raw rows alike — while a grouped aggregate over no rows yields
// none. t(k, v) holds (1, 4) and (2, 6).
func TestGlobalAggregateOverNoRows(t *testing.T) {
	i, null := exec.Int, exec.Null()
	cat := plan.MapCatalog{"t": exec.NewSchema(
		exec.Column{Name: "k", Type: exec.TypeInt},
		exec.Column{Name: "v", Type: exec.TypeInt},
	)}
	table := []exec.Row{{i(1), i(4)}, {i(2), i(6)}}
	db := dbms.NewDatabase()
	schema, _ := cat.Table("t")
	db.Load("t", schema, table)
	cases := []struct {
		name, sql string
		want      []exec.Row
	}{
		{"count", "SELECT count(*) AS n FROM t WHERE v > 100", []exec.Row{{i(0)}}},
		{"count-sum", "SELECT count(*) AS n, sum(v) AS s FROM t WHERE v > 100", []exec.Row{{i(0), null}}},
		{"distinct-avg-min", "SELECT count(DISTINCT v) AS d, avg(v) AS a, min(k) AS m FROM t WHERE v > 100",
			[]exec.Row{{i(0), null, null}}},
		{"some-rows", "SELECT count(*) AS n, sum(v) AS s FROM t WHERE v > 5", []exec.Row{{i(1), i(6)}}},
		{"grouped", "SELECT k, count(*) AS n FROM t WHERE v > 100 GROUP BY k", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stmt, err := sqlparser.Parse(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			root, err := plan.Build(stmt, cat)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := dbms.Execute(root, db)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			assertSameRows(t, root.Schema(), oracle.Rows, tc.want)
			for _, mode := range allModes {
				for _, workers := range []int{1, 8} {
					t.Run(fmt.Sprintf("%v/workers=%d", mode, workers), func(t *testing.T) {
						tr, err := Translate(root, mode, Options{QueryName: tc.name})
						if err != nil {
							t.Fatal(err)
						}
						dfs := mapreduce.NewDFS()
						dfs.Write(TablePath("t"), datagen.Lines(table))
						eng, err := mapreduce.NewEngine(dfs, mapreduce.SmallCluster())
						if err != nil {
							t.Fatal(err)
						}
						eng.SetWorkers(workers)
						if _, err := eng.RunChain(tr.Jobs); err != nil {
							t.Fatal(err)
						}
						rows, err := tr.ReadResult(dfs)
						if err != nil {
							t.Fatal(err)
						}
						assertSameRows(t, tr.OutputSchema, rows, tc.want)
					})
				}
			}
		})
	}
}
