package translator

import (
	"errors"
	"testing"

	"ysmart/internal/dbms"
	"ysmart/internal/mapreduce"
	"ysmart/internal/plan"
	"ysmart/internal/queries"
)

// TestComputedKeyFallsBackToSeparateScans: when one instance of a shared
// table is keyed through a computed projection, its key cannot be traced to
// a base column, so that stream falls back to its own scan — correctness
// over sharing.
func TestComputedKeyFallsBackToSeparateScans(t *testing.T) {
	// b's join column u2 is uid+0: a computed projection the shared-scan
	// mapper cannot key on from the raw row.
	sql := `
		SELECT a.uid, b.u2 FROM
		  clicks AS a,
		  (SELECT uid + 0 AS u2, ts FROM clicks) AS b
		WHERE a.uid = b.u2 AND a.cid = 1`

	dfs, db := workload(t)
	root, err := queries.Plan(sql)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Translate(root, YSmart, Options{QueryName: "computed-key"})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := mapreduce.NewEngine(dfs, mapreduce.SmallCluster())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.RunChain(tr.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Both instances scan clicks separately: two full scans.
	clicksBytes := dfs.SizeBytes(TablePath("clicks"))
	if got := stats.Jobs[0].MapInputBytes; got != 2*clicksBytes {
		t.Errorf("map input = %d, want two separate clicks scans (%d)", got, 2*clicksBytes)
	}
	// And the result still matches the oracle.
	oracle, err := dbms.Execute(root, db)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tr.ReadResult(dfs)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, tr.OutputSchema, rows, oracle.Rows)
}

// TestLimitWithoutSortRejected: LIMIT is only expressible above the final
// ORDER BY (a single total-order reducer); anywhere else planning refuses
// it as unsupported, so no statement with one reaches lowering.
func TestLimitWithoutSortRejected(t *testing.T) {
	for _, sql := range []string{
		"SELECT uid, count(*) FROM clicks GROUP BY uid LIMIT 5",
		// Inside a derived table, even above an ORDER BY.
		`SELECT x.uid FROM
		 (SELECT uid FROM clicks ORDER BY uid LIMIT 5) AS x,
		 clicks c
		WHERE x.uid = c.uid`,
	} {
		if _, err := queries.Plan(sql); !errors.Is(err, plan.ErrUnsupported) {
			t.Errorf("%s: planning answered %v, want a refusal wrapping plan.ErrUnsupported", sql, err)
		}
	}
}
