package difftest

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"ysmart"
	"ysmart/internal/server"
)

// noncanonicalCatalog is n(id, i, x, s).
var noncanonicalCatalog = ysmart.Catalog{
	"n": ysmart.NewSchema(
		ysmart.Column{Name: "id", Type: ysmart.TypeInt},
		ysmart.Column{Name: "i", Type: ysmart.TypeInt},
		ysmart.Column{Name: "x", Type: ysmart.TypeFloat},
		ysmart.Column{Name: "s", Type: ysmart.TypeString},
	),
}

// noncanonicalLines is n as loaded text, in spellings the codec never
// writes: numbers with leading zeros, a '+', a trailing zero, an exponent,
// the zeros -0, -0.0 and 0.00, a 19-digit int, and escaped strings. The
// decoder's fast path refuses each of them, so each is parsed and, when
// printed, rendered anew: "007" prints 7 and "1.50" prints 1.5. Its
// neighbours (1.0-style zeros, ordinary ints) are canonical and print as
// they are spelled.
var noncanonicalLines = []string{
	"1\t007\t1.50\ta\\tb",
	"2\t+5\t1e3\tback\\\\slash",
	"3\t-0\t0.0\t\\N",
	"4\t1000000000000000000\t-0\tN",
	"5\t5\t-0.0\tx",
	"6\t\\N\t0.00\tline\\nbreak",
	"7\t-12\t+2.5\t007",
	"8\t7\t2.5\t1.50",
	"9\t0\t\\N\t",
	"10\t-007\t-1.50\t-0",
}

// noncanonicalQueries carry hand-computed results as codec lines. The four
// zeros of x are one GROUP BY, DISTINCT and join key; the zeros' group
// prints 0.0, its first row's value.
var noncanonicalQueries = []struct {
	name, sql string
	ordered   bool
	want      []string
}{
	{"all", "SELECT id, i, x, s FROM n", false, []string{
		"1\t7\t1.5\ta\\tb", "10\t-7\t-1.5\t-0", "2\t5\t1000.0\tback\\\\slash", "3\t0\t0.0\t\\N",
		"4\t1000000000000000000\t-0.0\tN", "5\t5\t-0.0\tx", "6\t\\N\t0.0\tline\\nbreak",
		"7\t-12\t2.5\t007", "8\t7\t2.5\t1.50", "9\t0\t\\N\t"}},
	{"group-x", "SELECT x, COUNT(*) AS c FROM n GROUP BY x", false, []string{
		"-1.5\t1", "0.0\t4", "1.5\t1", "1000.0\t1", "2.5\t2", "\\N\t1"}},
	{"distinct-x", "SELECT COUNT(DISTINCT x) AS c FROM n", false, []string{"5"}},
	{"group-i", "SELECT i, COUNT(*) AS c, SUM(x) AS t FROM n GROUP BY i", false, []string{
		"-12\t1\t2.5", "-7\t1\t-1.5", "0\t2\t0.0", "1000000000000000000\t1\t0.0",
		"5\t2\t1000.0", "7\t2\t4.0", "\\N\t1\t0.0"}},
	{"distinct-i", "SELECT COUNT(DISTINCT i) AS c FROM n", false, []string{"6"}},
	{"order", "SELECT id, x FROM n ORDER BY x, id", true, []string{
		"9\t\\N", "10\t-1.5", "3\t0.0", "4\t-0.0", "5\t-0.0", "6\t0.0",
		"1\t1.5", "7\t2.5", "8\t2.5", "2\t1000.0"}},
	{"join", "SELECT a.id, b.id FROM n a JOIN n b ON a.x = b.x WHERE a.id < b.id", false, []string{
		"3\t4", "3\t5", "3\t6", "4\t5", "4\t6", "5\t6", "7\t8"}},
}

// codecLines renders rows as codec lines, sorted unless ordered.
func codecLines(rows []ysmart.Row, ordered bool) []string {
	out := ysmart.EncodeTable(rows)
	if !ordered {
		sort.Strings(out)
	}
	return out
}

// TestNonCanonicalFieldsRender loads a table whose cells are spelled as the
// codec never writes them and holds every translation mode's rows, at one
// and eight workers, fault-free and under a fault seed, to hand-computed
// codec lines: a value the decoder parsed is rendered from its value, never
// copied from its spelling, and the zeros stay one key. The same queries
// over the wire, at one and eight workers, answer the text PostgreSQL
// renders for those rows.
func TestNonCanonicalFieldsRender(t *testing.T) {
	want := map[string][]ysmart.Row{}
	for _, q := range noncanonicalQueries {
		parsed, err := ysmart.Parse(q.sql, noncanonicalCatalog)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		for _, mode := range []ysmart.Mode{ysmart.YSmart, ysmart.OneToOne, ysmart.PigLike, ysmart.ICTCOnly} {
			tr, err := parsed.Translate(mode, ysmart.Options{QueryName: "noncanonical-" + q.name})
			if err != nil {
				t.Fatalf("%s/%v: %v", q.name, mode, err)
			}
			for _, plan := range FaultPlans(1) {
				for _, workers := range []int{1, 8} {
					rt, err := ysmart.NewRuntime(Cluster(plan))
					if err != nil {
						t.Fatal(err)
					}
					rt.SetWorkers(workers)
					rt.LoadTableLines("n", noncanonicalLines)
					res, err := rt.Run(tr)
					if err != nil {
						t.Fatalf("%s/%v/%s/workers=%d: %v", q.name, mode, PlanLabel(plan), workers, err)
					}
					diffLines(t, fmt.Sprintf("%s/%v/%s/workers=%d", q.name, mode, PlanLabel(plan), workers),
						codecLines(res.Rows, q.ordered), q.want)
					want[q.name] = res.Rows
				}
			}
		}
	}
	for _, workers := range []int{1, 8} {
		srv, err := server.New(server.Config{
			Catalog: noncanonicalCatalog,
			Cluster: func() *ysmart.Cluster { return Cluster(nil) },
			Workers: workers,
		}, map[string][]string{"n": noncanonicalLines})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cli, err := server.Dial(addr, "noncanonical", "ysmart", 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range noncanonicalQueries {
			res, err := cli.Query(q.sql)
			if err != nil {
				t.Fatalf("workers=%d, %s: %v", workers, q.name, err)
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
			rows := want[q.name]
			wire := make([]string, len(rows))
			for i, row := range rows {
				cells := make([]string, len(row))
				for c, v := range row {
					cells[c] = "NULL"
					if !v.IsNull() {
						cells[c] = fmt.Sprintf("%q", server.TextValue(v))
					}
				}
				wire[i] = strings.Join(cells, " ")
			}
			if !q.ordered {
				sort.Strings(got)
				sort.Strings(wire)
			}
			diffLines(t, fmt.Sprintf("workers=%d, %s: wire text", workers, q.name), got, wire)
		}
		cli.Close()
		srv.Shutdown(10 * time.Second)
	}
}
