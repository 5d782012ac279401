package difftest

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"ysmart"
	"ysmart/internal/dbms"
	"ysmart/internal/server"
)

// hostileCodes are strings whose text reads as something else — a number,
// a boolean, NULL, nothing at all — or that need the codec's escapes. A
// reader that typed shipped fields by their text instead of their column
// would turn "007" into 7 and the empty string into no field at all.
var hostileCodes = []string{
	"", "007", "1e3", "-0", "+5", "Inf", "NaN", "true", "false", `\N`,
	"12345678901234567890", "tab\there", "new\nline", `back\slash`,
}

// hostileCatalog is t(id, code, v) and u(id, w).
var hostileCatalog = ysmart.Catalog{
	"t": ysmart.NewSchema(
		ysmart.Column{Name: "id", Type: ysmart.TypeInt},
		ysmart.Column{Name: "code", Type: ysmart.TypeString},
		ysmart.Column{Name: "v", Type: ysmart.TypeInt},
	),
	"u": ysmart.NewSchema(
		ysmart.Column{Name: "id", Type: ysmart.TypeInt},
		ysmart.Column{Name: "w", Type: ysmart.TypeInt},
	),
}

// hostileTables holds every code twice in t, under two ids, and gives u a
// row for the first id of each.
func hostileTables() map[string][]ysmart.Row {
	var t, u []ysmart.Row
	n := int64(len(hostileCodes))
	for i, code := range hostileCodes {
		id := int64(i)
		t = append(t,
			ysmart.Row{ysmart.Int(id), ysmart.Str(code), ysmart.Int(10 * id)},
			ysmart.Row{ysmart.Int(id + n), ysmart.Str(code), ysmart.Int(-id)})
		u = append(u, ysmart.Row{ysmart.Int(id), ysmart.Int(1000 + id)})
	}
	return map[string][]ysmart.Row{"t": t, "u": u}
}

// hostileQueries group, join, order, filter and count over the codes; the
// last types its column through COALESCE's first non-NULL argument.
var hostileQueries = []struct{ name, sql string }{
	{"group", "SELECT code, count(*) AS n, max(v) AS m, min(code) AS lo FROM t GROUP BY code"},
	{"join", "SELECT t.id, t.code, u.w FROM t JOIN u ON t.id = u.id"},
	{"order", "SELECT id, code FROM t ORDER BY code, id"},
	{"filter", "SELECT id, code FROM t WHERE code = '007'"},
	{"count", "SELECT count(*) AS n FROM t"},
	{"coalesce", "SELECT x.c, u.w FROM (SELECT id, COALESCE(NULL, code) AS c FROM t) x JOIN u ON x.id = u.id"},
}

// TestHostileStringsMatchOracle holds every translation mode, at one and
// eight workers, fault-free and under a fault seed, to the DBMS oracle over
// hostile strings: the shuffle decodes each field by its column's type, so
// no code comes back as a number, a boolean, NULL or a missing field. An
// ORDER BY is held to the oracle's order, not just its rows.
func TestHostileStringsMatchOracle(t *testing.T) {
	tables := hostileTables()
	for _, q := range hostileQueries {
		parsed, err := ysmart.Parse(q.sql, hostileCatalog)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		oracle, err := ysmart.OracleResult(parsed, hostileCatalog, tables)
		if err != nil {
			t.Fatalf("%s oracle: %v", q.name, err)
		}
		want := dbms.SortedLines(oracle)
		for _, mode := range []ysmart.Mode{ysmart.YSmart, ysmart.OneToOne, ysmart.PigLike, ysmart.ICTCOnly} {
			tr, err := parsed.Translate(mode, ysmart.Options{QueryName: "hostile-" + q.name})
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
						diffLines(t, "engine vs dbms oracle", run.SortedLines(), want)
						if q.name == "order" && !reflect.DeepEqual(run.Rows, oracle) {
							t.Errorf("ORDER BY: engine order %v, oracle order %v", run.Rows, oracle)
						}
					})
				}
			}
		}
	}
}

// TestHostileStringsOnTheWire sends hostile queries through a live server
// and compares the DataRow text cell by cell with the oracle's rows
// rendered the way the server renders them.
func TestHostileStringsOnTheWire(t *testing.T) {
	tables := hostileTables()
	srv, err := server.New(server.Config{
		Catalog: hostileCatalog,
		Cluster: func() *ysmart.Cluster { return Cluster(nil) },
		Workers: 2,
	}, server.EncodeTables(tables))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(10 * time.Second)
	cli, err := server.Dial(addr, "hostile", "ysmart", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for _, q := range hostileQueries {
		if q.name != "group" && q.name != "join" {
			continue
		}
		res, err := cli.Query(q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		got := make([]string, len(res.Rows))
		for i, row := range res.Rows {
			cells := make([]string, len(row))
			for c, cell := range row {
				cells[c] = "NULL"
				if cell != nil {
					cells[c] = fmt.Sprintf("%q", *cell)
				}
			}
			got[i] = strings.Join(cells, " ")
		}
		parsed, err := ysmart.Parse(q.sql, hostileCatalog)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := ysmart.OracleResult(parsed, hostileCatalog, tables)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]string, len(oracle))
		for i, row := range oracle {
			cells := make([]string, len(row))
			for c, v := range row {
				cells[c] = "NULL"
				if !v.IsNull() {
					cells[c] = fmt.Sprintf("%q", server.TextValue(v))
				}
			}
			want[i] = strings.Join(cells, " ")
		}
		sort.Strings(got)
		sort.Strings(want)
		diffLines(t, q.name+": wire text vs dbms oracle", got, want)
	}
}
