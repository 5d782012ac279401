package translator

import (
	"strings"
	"testing"

	"ysmart/internal/datagen"
	"ysmart/internal/dbms"
	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/plan"
	"ysmart/internal/sqlparser"
)

// TestMixedNumericArms: a CASE or COALESCE whose arms mix INT and FLOAT is
// typed FLOAT and yields FLOAT on every row, so its column encodes, shuffles
// and groups as FLOAT in every mode and in the DBMS oracle, which shares the
// evaluator. t(id, v, w) holds v = 0..9 and w = v for even v, NULL for odd.
func TestMixedNumericArms(t *testing.T) {
	i, f := exec.Int, exec.Float
	cat := plan.MapCatalog{"t": exec.NewSchema(
		exec.Column{Name: "id", Type: exec.TypeInt},
		exec.Column{Name: "v", Type: exec.TypeInt},
		exec.Column{Name: "w", Type: exec.TypeInt},
	)}
	var table []exec.Row
	for v := int64(0); v < 10; v++ {
		w := exec.Null()
		if v%2 == 0 {
			w = i(v)
		}
		table = append(table, exec.Row{i(v), i(v), w})
	}
	dfs := mapreduce.NewDFS()
	dfs.Write(TablePath("t"), datagen.Lines(table))
	db := dbms.NewDatabase()
	schema, _ := cat.Table("t")
	db.Load("t", schema, table)

	var caseRows, coalesceRows []exec.Row
	for v := int64(0); v < 10; v++ {
		c := f(2.5)
		if v > 5 {
			c = f(1)
		}
		caseRows = append(caseRows, exec.Row{c})
		w := f(2.5)
		if v%2 == 0 {
			w = f(float64(v))
		}
		coalesceRows = append(coalesceRows, exec.Row{i(v), w})
	}
	cases := []struct {
		name, sql string
		want      []exec.Row
	}{
		{"case", "SELECT CASE WHEN v > 5 THEN 1 ELSE 2.5 END AS c FROM t", caseRows},
		{"case-group", "SELECT CASE WHEN v > 5 THEN 1 ELSE 2.5 END AS c, count(*) AS n FROM t GROUP BY c",
			[]exec.Row{{f(1), i(4)}, {f(2.5), i(6)}}},
		{"coalesce", "SELECT id, COALESCE(w, 2.5) AS c FROM t", coalesceRows},
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
			c, err := root.Schema().Resolve("", "c")
			if err != nil {
				t.Fatal(err)
			}
			if typ := root.Schema().Cols[c].Type; typ != exec.TypeFloat {
				t.Errorf("c is typed %v, want FLOAT", typ)
			}
			oracle, err := dbms.Execute(root, db)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			assertSameRows(t, root.Schema(), oracle.Rows, tc.want)
			for _, mode := range allModes {
				tr, err := Translate(root, mode, Options{QueryName: tc.name})
				if err != nil {
					t.Fatalf("translate (%v): %v", mode, err)
				}
				rows, _ := runMR(t, tr, dfs)
				assertSameRows(t, tr.OutputSchema, rows, tc.want)
			}
		})
	}
}

// TestUnmatchedArmsFailAtPlanTime: a CASE or COALESCE whose arms are
// neither one type nor an INT/FLOAT mix is refused, naming both types,
// when the plan is typed — or, inside a condition, which no schema column
// types, when the translation compiles it — rather than typed by its first
// arm and failing mid-run on the rows of the other.
func TestUnmatchedArmsFailAtPlanTime(t *testing.T) {
	cat := plan.MapCatalog{"t": exec.NewSchema(
		exec.Column{Name: "id", Type: exec.TypeInt},
		exec.Column{Name: "x", Type: exec.TypeFloat},
		exec.Column{Name: "s", Type: exec.TypeString},
	)}
	for sql, want := range map[string]string{
		"SELECT id, CASE WHEN x > 5 THEN 1 ELSE 'a' END AS c FROM t":     "CASE types int and string cannot be matched",
		"SELECT id, COALESCE(x, s) AS c FROM t":                          "COALESCE types float and string cannot be matched",
		"SELECT id FROM t WHERE CASE WHEN x > 5 THEN s ELSE 2 END = 'a'": "CASE types string and int cannot be matched",
	} {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		root, err := plan.Build(stmt, cat)
		if err == nil {
			_, err = Translate(root, YSmart, Options{QueryName: "arms"})
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: plan error %v, want one containing %q", sql, err, want)
		}
	}
}
