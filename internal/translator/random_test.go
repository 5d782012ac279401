package translator

import (
	"fmt"
	"math/rand"
	"testing"

	"ysmart/internal/datagen"
	"ysmart/internal/dbms"
	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/queries"
)

// TestRandomQueriesAllModesMatchOracle is a differential property test: a
// seeded generator produces structurally varied queries over the clicks
// table — selections, grouped aggregations (including COUNT DISTINCT and
// HAVING), self-joins with residual predicates, derived-table joins, and
// aggregations stacked on joins — and every translation mode must produce
// exactly the oracle's rows for each of them. It also holds the paper's
// promise on every query: YSmart runs no more jobs than the one-to-one
// translation and reads no more map input, and ICTCOnly, where only the
// input- and transit-correlation merges fire, shuffles no more bytes.
func TestRandomQueriesAllModesMatchOracle(t *testing.T) {
	clicksCfg := datagen.ClickConfig{Users: 40, ClicksPerUser: 12, Categories: 4, Seed: 5}
	clicks, err := datagen.Clickstream(clicksCfg)
	if err != nil {
		t.Fatal(err)
	}
	dfs := mapreduce.NewDFS()
	db := dbms.NewDatabase()
	cat := queries.Catalog()
	schema, _ := cat.Table("clicks")
	dfs.Write(TablePath("clicks"), datagen.Lines(clicks["clicks"]))
	db.Load("clicks", schema, clicks["clicks"])

	rng := rand.New(rand.NewSource(99))
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		sql, ordered := randomQuery(rng)
		t.Run(fmt.Sprintf("q%02d", trial), func(t *testing.T) {
			root, err := queries.Plan(sql)
			if err != nil {
				t.Fatalf("plan %q: %v", sql, err)
			}
			oracle, err := dbms.Execute(root, db)
			if err != nil {
				t.Fatalf("oracle %q: %v", sql, err)
			}
			stats := map[Mode]*mapreduce.ChainStats{}
			for _, mode := range allModes {
				tr, err := Translate(root, mode, Options{
					QueryName: fmt.Sprintf("rand%02d-%s", trial, mode),
				})
				if err != nil {
					t.Fatalf("translate %q (%v): %v", sql, mode, err)
				}
				eng, err := mapreduce.NewEngine(dfs, mapreduce.SmallCluster())
				if err != nil {
					t.Fatal(err)
				}
				if stats[mode], err = eng.RunChain(tr.Jobs); err != nil {
					t.Fatalf("run %q (%v): %v", sql, mode, err)
				}
				rows, err := tr.ReadResult(dfs)
				if err != nil {
					t.Fatalf("read %q (%v): %v", sql, mode, err)
				}
				if len(rows) != len(oracle.Rows) {
					t.Fatalf("%v: %d rows, oracle %d\nquery: %s",
						mode, len(rows), len(oracle.Rows), sql)
				}
				assertSameRows(t, tr.OutputSchema, rows, oracle.Rows)
				if ordered {
					// Distributed sorts must reproduce the exact sequence.
					for i := range rows {
						if exec.EncodeRow(rows[i]) != exec.EncodeRow(oracle.Rows[i]) {
							t.Fatalf("%v: row %d out of order\nquery: %s", mode, i, sql)
						}
					}
				}
			}
			ys, one := stats[YSmart], stats[OneToOne]
			if ys.NumJobs() > one.NumJobs() {
				t.Errorf("YSmart ran %d jobs, one-to-one %d\nquery: %s", ys.NumJobs(), one.NumJobs(), sql)
			}
			if ys.TotalMapInputBytes() > one.TotalMapInputBytes() {
				t.Errorf("YSmart read %d map-input bytes, one-to-one %d\nquery: %s",
					ys.TotalMapInputBytes(), one.TotalMapInputBytes(), sql)
			}
			if ictc := stats[ICTCOnly]; ictc.TotalShuffleBytes() > one.TotalShuffleBytes() {
				t.Errorf("ic-tc-only shuffled %d bytes, one-to-one %d\nquery: %s",
					ictc.TotalShuffleBytes(), one.TotalShuffleBytes(), sql)
			}
		})
	}
}

// randomQuery emits one random query over clicks(uid, page, cid, ts).
// ordered reports whether the query carries a total ORDER BY, in which case
// the caller checks the exact output sequence.
func randomQuery(r *rand.Rand) (sql string, ordered bool) {
	pick := func(opts ...string) string { return opts[r.Intn(len(opts))] }

	pred := func(binding string) string {
		col := func(name string) string {
			if binding == "" {
				return name
			}
			return binding + "." + name
		}
		switch r.Intn(6) {
		case 0:
			return fmt.Sprintf("%s = %d", col("cid"), r.Intn(4))
		case 1:
			return fmt.Sprintf("%s <> %d", col("cid"), r.Intn(4))
		case 2:
			return fmt.Sprintf("%s > %d", col("uid"), r.Intn(30))
		case 3:
			return fmt.Sprintf("%s %% 2 = 0", col("ts"))
		case 4:
			return fmt.Sprintf("%s BETWEEN %d AND %d", col("page"), 500, 3500)
		default:
			return fmt.Sprintf("%s IN (0, 2, 3)", col("cid"))
		}
	}

	agg := func(binding string) string {
		col := func(name string) string {
			if binding == "" {
				return name
			}
			return binding + "." + name
		}
		return pick(
			"count(*)",
			fmt.Sprintf("sum(%s)", col("ts")),
			fmt.Sprintf("min(%s)", col("ts")),
			fmt.Sprintf("max(%s)", col("page")),
			fmt.Sprintf("avg(%s)", col("ts")),
			fmt.Sprintf("count(distinct %s)", col("cid")),
		)
	}

	switch r.Intn(7) {
	case 0: // selection-projection
		q := fmt.Sprintf("SELECT uid, %s, ts FROM clicks", pick("page", "cid"))
		if r.Intn(3) > 0 {
			q += " WHERE " + pred("")
		}
		return q, false

	case 1: // grouped aggregation, optional HAVING
		groupCol := pick("uid", "cid")
		q := fmt.Sprintf("SELECT %s, %s AS m, count(*) AS n FROM clicks", groupCol, agg(""))
		if r.Intn(2) == 0 {
			q += " WHERE " + pred("")
		}
		q += " GROUP BY " + groupCol
		if r.Intn(3) == 0 {
			q += " HAVING count(*) > 2"
		}
		return q, false

	case 2: // self-join with residual
		q := `SELECT c1.uid, c1.ts, c2.ts AS ts2 FROM clicks c1, clicks c2
			WHERE c1.uid = c2.uid AND c1.ts < c2.ts`
		if r.Intn(2) == 0 {
			q += " AND " + pred("c1")
		}
		if r.Intn(2) == 0 {
			q += " AND " + pred("c2")
		}
		return q, false

	case 3: // join against an aggregated derived table (rule 2/4 shapes)
		q := fmt.Sprintf(`SELECT c.uid, c.ts, g.mts FROM clicks c,
			(SELECT uid, max(ts) AS mts, %s AS gm FROM clicks GROUP BY uid) AS g
			WHERE c.uid = g.uid`, agg(""))
		if r.Intn(2) == 0 {
			q += " AND c.ts = g.mts"
		}
		if r.Intn(2) == 0 {
			q += " AND " + pred("c")
		}
		return q, false

	case 4: // outer self-join, optionally anti-join filtered
		q := fmt.Sprintf(`SELECT c1.uid, c1.ts, c2.ts AS ts2
			FROM clicks c1 LEFT OUTER JOIN clicks c2
			ON c1.uid = c2.uid AND c2.ts > c1.ts AND %s`, pred("c2"))
		if r.Intn(2) == 0 {
			q += " WHERE c2.ts IS NULL"
		}
		return q, false

	case 5: // distributed total-order sort over a filtered scan or aggregate
		if r.Intn(2) == 0 {
			return fmt.Sprintf(`SELECT uid, cid, ts FROM clicks WHERE %s
				ORDER BY %s DESC, ts, uid`, pred(""), pick("cid", "uid")), true
		}
		return `SELECT uid, count(*) AS n FROM clicks GROUP BY uid
			ORDER BY n DESC, uid`, true

	default: // aggregation over a self-join (rule 1 + rule 2 together)
		q := fmt.Sprintf(`SELECT c1.uid, count(*) AS pairs, %s AS m
			FROM clicks c1, clicks c2
			WHERE c1.uid = c2.uid`, agg("c2"))
		if r.Intn(2) == 0 {
			q += " AND " + pred("c1")
		}
		q += " GROUP BY c1.uid"
		return q, false
	}
}
