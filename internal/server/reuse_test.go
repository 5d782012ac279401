package server

import (
	"sort"
	"strings"
	"testing"

	"ysmart/internal/dbms"
	"ysmart/internal/exec"
	"ysmart/internal/plan"
	"ysmart/internal/queries"
	"ysmart/internal/sqlparser"
)

// oracleWireLinesOver is oracleWireLines over an arbitrary data set, for
// checking results after a dataset was re-registered.
func oracleWireLinesOver(t *testing.T, sql string, rows map[string][]exec.Row) []string {
	t.Helper()
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

// halvedClicks returns the fixture with the second half of the click
// stream gone — the other dataset version of the re-registration tests.
func halvedClicks(t *testing.T) map[string][]exec.Row {
	t.Helper()
	rows, _ := fixture(t)
	out := make(map[string][]exec.Row, len(rows))
	for name, r := range rows {
		out[name] = r
	}
	out["clicks"] = rows["clicks"][:len(rows["clicks"])/2]
	return out
}

// TestServerReuseAcrossSessions: with Config.Reuse on, a second session's
// identical query is served from artifacts the first session's run
// materialized — zero jobs re-executed, identical rows, hit counters on
// the shared registry.
func TestServerReuseAcrossSessions(t *testing.T) {
	srv, addr := startTestServer(t, func(c *Config) { c.Reuse = true })
	if srv.ReuseStore() == nil {
		t.Fatal("ReuseStore() is nil with Config.Reuse on")
	}

	cli1 := dialTest(t, addr)
	res1, err := cli1.Query(queries.QAGG)
	if err != nil {
		t.Fatalf("cold query: %v", err)
	}
	if srv.ReuseStore().Len() == 0 {
		t.Fatal("cold run recorded no artifacts")
	}
	hitsBefore := srv.Registry().Value("ysmart_reuse_hits_total")

	cli2 := dialTest(t, addr)
	res2, err := cli2.Query(queries.QAGG)
	if err != nil {
		t.Fatalf("warm query: %v", err)
	}
	diffLines(t, "warm session vs cold session", wireLines(res2), wireLines(res1))
	diffLines(t, "warm session vs oracle", wireLines(res2), oracleWireLines(t, queries.QAGG))
	if got := srv.Registry().Value("ysmart_reuse_hits_total"); got <= hitsBefore {
		t.Errorf("reuse hits %v after warm session, want > %v", got, hitsBefore)
	}
}

// TestServerReuseRegisterDatasetInvalidation is the satellite's epoch
// proof: re-registering a dataset bumps its validity epoch, so a session
// opened afterwards must re-execute cold against the new data (verified
// against the DBMS oracle over that data), while a session opened before
// keeps answering from the data it actually copied.
func TestServerReuseRegisterDatasetInvalidation(t *testing.T) {
	srv, addr := startTestServer(t, func(c *Config) { c.Reuse = true })

	// Session A runs cold over the fixture clicks and seeds the store.
	cliA := dialTest(t, addr)
	resA, err := cliA.Query(queries.QAGG)
	if err != nil {
		t.Fatalf("session A cold query: %v", err)
	}
	diffLines(t, "session A vs fixture oracle", wireLines(resA), oracleWireLines(t, queries.QAGG))

	// The dataset changes: half the click stream disappears.
	newRows := halvedClicks(t)
	srv.RegisterDataset("clicks", EncodeTables(newRows)["clicks"])

	// Session B, opened after the re-registration, must not see session
	// A's artifacts: its rows must match the oracle over the NEW data.
	cliB := dialTest(t, addr)
	resB, err := cliB.Query(queries.QAGG)
	if err != nil {
		t.Fatalf("session B query: %v", err)
	}
	diffLines(t, "session B vs new-data oracle", wireLines(resB), oracleWireLinesOver(t, queries.QAGG, newRows))
	if got, old := strings.Join(wireLines(resB), "\n"), strings.Join(wireLines(resA), "\n"); got == old {
		t.Fatal("session B reproduced the pre-registration rows; the stale artifact was served")
	}

	// Session A still holds the old tables; re-running there must keep
	// answering over them — never over session B's artifacts.
	resA2, err := cliA.Query(queries.QAGG)
	if err != nil {
		t.Fatalf("session A warm query: %v", err)
	}
	diffLines(t, "session A after re-registration", wireLines(resA2), wireLines(resA))

	if got := srv.Registry().Value("ysmart_reuse_invalidations_total"); got == 0 {
		t.Error("no invalidation counted after dataset re-registration")
	}
}
