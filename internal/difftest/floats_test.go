package difftest

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"ysmart"
)

// floatCatalog is f(id, x).
var floatCatalog = ysmart.Catalog{
	"f": ysmart.NewSchema(
		ysmart.Column{Name: "id", Type: ysmart.TypeInt},
		ysmart.Column{Name: "x", Type: ysmart.TypeFloat},
	),
}

// floatTable holds the floats IEEE 754 orders partially or with two
// zeros: two NaNs (one with the sign bit set), -0.0 under a larger id than
// 0.0, both infinities and the least subnormal, beside ordinary numbers
// and a NULL.
func floatTable() map[string][]ysmart.Row {
	xs := []ysmart.Value{
		ysmart.Float(math.NaN()), ysmart.Float(1), ysmart.Float(0), ysmart.Float(math.Copysign(0, -1)),
		ysmart.Float(math.Inf(1)), ysmart.Float(math.Inf(-1)), ysmart.Float(math.SmallestNonzeroFloat64),
		ysmart.Float(math.Copysign(math.NaN(), -1)), ysmart.Float(2), ysmart.Float(1.5), ysmart.Null(),
	}
	rows := make([]ysmart.Row, len(xs))
	for i, x := range xs {
		rows[i] = ysmart.Row{ysmart.Int(int64(i + 1)), x}
	}
	return map[string][]ysmart.Row{"f": rows}
}

// floatQueries carry hand-computed results, "id x" per row, under
// PostgreSQL's rule: NaN equals NaN and sorts above every other number,
// and -0.0 equals 0.0, in comparisons and as a key. The oracle shares the engine's evaluator, so it is
// held to these rows too rather than trusted. ordered queries are checked
// row by row in order.
var floatQueries = []struct {
	name, sql string
	ordered   bool
	want      []string
}{
	{"eq", "SELECT id, x FROM f WHERE x = 1", false, []string{"2 1"}},
	{"gt", "SELECT id, x FROM f WHERE x > 1", false,
		[]string{"1 NaN", "10 1.5", "5 +Inf", "8 NaN", "9 2"}},
	{"order", "SELECT id, x FROM f ORDER BY x, id", true,
		[]string{"11 NULL", "6 -Inf", "3 0", "4 -0", "7 5e-324", "2 1", "10 1.5", "9 2", "5 +Inf", "1 NaN", "8 NaN"}},
	{"order-desc", "SELECT id, x FROM f ORDER BY x DESC, id", true,
		[]string{"1 NaN", "8 NaN", "5 +Inf", "9 2", "10 1.5", "2 1", "7 5e-324", "3 0", "4 -0", "6 -Inf", "11 NULL"}},
	// Keys: 0.0 and -0.0 are one group, one distinct value and one join
	// key; so are the two NaNs. The zeros' group prints 0.0, its first
	// row's value.
	{"group", "SELECT x, COUNT(*) AS n FROM f GROUP BY x", false,
		[]string{"+Inf 1", "-Inf 1", "0 2", "1 1", "1.5 1", "2 1", "5e-324 1", "NULL 1", "NaN 2"}},
	{"distinct", "SELECT COUNT(DISTINCT x) AS n FROM f", false, []string{"8"}},
	{"join", "SELECT a.id, b.id FROM f a JOIN f b ON a.x = b.x WHERE a.id < b.id", false,
		[]string{"1 8", "3 4"}},
}

func renderRows(rows []ysmart.Row, ordered bool) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		cells := make([]string, len(r))
		for c, v := range r {
			cells[c] = v.String()
		}
		out[i] = strings.Join(cells, " ")
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

// TestHostileFloats holds every translation mode, at one and eight
// workers, fault-free and under a fault seed, and the DBMS oracle to
// hand-computed rows over NaN, -0.0, the infinities and a subnormal: a
// comparison with NaN is not always FALSE, ORDER BY breaks the tie
// between -0.0 and 0.0 by its next key, and GROUP BY, COUNT(DISTINCT) and
// an equi-join take the two zeros as one key.
func TestHostileFloats(t *testing.T) {
	tables := floatTable()
	for _, q := range floatQueries {
		parsed, err := ysmart.Parse(q.sql, floatCatalog)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		oracle, err := ysmart.OracleResult(parsed, floatCatalog, tables)
		if err != nil {
			t.Fatalf("%s oracle: %v", q.name, err)
		}
		diffLines(t, q.name+": dbms oracle vs hand-computed", renderRows(oracle, q.ordered), q.want)
		for _, mode := range []ysmart.Mode{ysmart.YSmart, ysmart.OneToOne, ysmart.PigLike, ysmart.ICTCOnly} {
			tr, err := parsed.Translate(mode, ysmart.Options{QueryName: "floats-" + q.name})
			if err != nil {
				t.Fatalf("%s/%v: %v", q.name, mode, err)
			}
			for _, plan := range FaultPlans(1) {
				for _, workers := range []int{1, 8} {
					t.Run(fmt.Sprintf("%s/%v/%s/workers=%d", q.name, mode, PlanLabel(plan), workers), func(t *testing.T) {
						run, err := Execute(tr, workers, plan, tables)
						if err != nil {
							t.Fatal(err)
						}
						diffLines(t, "engine vs hand-computed", renderRows(run.Rows, q.ordered), q.want)
					})
				}
			}
		}
	}
}
