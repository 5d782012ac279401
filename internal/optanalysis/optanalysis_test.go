package optanalysis

import (
	"strings"
	"testing"

	"ysmart/internal/datagen"
	"ysmart/internal/dbms"
	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/queries"
	"ysmart/internal/translator"
	"ysmart/internal/userjobs"
)

// analyzeCorpus runs the analyzer over the naive user-job corpus.
func analyzeCorpus(t *testing.T) *Report {
	t.Helper()
	rep, err := Analyze(".", []string{"../userjobs"})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func jobReport(t *testing.T, rep *Report, name string) *JobReport {
	t.Helper()
	for _, jr := range rep.Jobs {
		if jr.Name == name {
			return jr
		}
	}
	t.Fatalf("no report for job %s", name)
	return nil
}

func findRewrite(jr *JobReport, kind string) *Rewrite {
	for _, rw := range jr.Rewrites {
		if rw.Kind == kind {
			return rw
		}
	}
	return nil
}

func findRefusal(jr *JobReport, kind string) *Refusal {
	for i := range jr.Refusals {
		if jr.Refusals[i].Kind == kind {
			return &jr.Refusals[i]
		}
	}
	return nil
}

// TestAnalyzeUserjobs pins the exact facts the analyzer infers from the
// naive corpus: which rewrites are proven, with what predicates and
// column sets, and which are refused with what reasons.
func TestAnalyzeUserjobs(t *testing.T) {
	rep := analyzeCorpus(t)
	if len(rep.Jobs) != 3 {
		t.Fatalf("found %d job literals, want 3:\n%s", len(rep.Jobs), rep.Format())
	}

	// agg-naive: count(*) reducer reads nothing — trim every column;
	// no mapper guard and no per-value loop, so both filters refuse.
	agg := jobReport(t, rep, "agg-naive-j1")
	trim := findRewrite(agg, KindTrim)
	if trim == nil {
		t.Fatalf("agg-naive-j1: no projection-trim:\n%s", rep.Format())
	}
	if got := strings.Join(trim.Columns, ","); got != "uid,page,cid,ts" {
		t.Errorf("agg-naive-j1 trim columns = %s, want all four", got)
	}
	if rf := findRefusal(agg, KindEarlyFilter); rf == nil || !strings.Contains(rf.Reason, "no leading constant-comparison guard") {
		t.Errorf("agg-naive-j1: want early-filter refusal about the missing guard, got %+v", rf)
	}
	if rf := findRefusal(agg, KindPushdown); rf == nil || !strings.Contains(rf.Reason, "no per-value loop") {
		t.Errorf("agg-naive-j1: want pushdown refusal about the missing loop, got %+v", rf)
	}

	// highvalue-naive: the reducer's price guard pushes down to the map
	// output, and only o_totalprice stays live.
	hv := jobReport(t, rep, "highvalue-naive-j1")
	push := findRewrite(hv, KindPushdown)
	if push == nil {
		t.Fatalf("highvalue-naive-j1: no reducer-pushdown:\n%s", rep.Format())
	}
	if push.Predicate != "o_totalprice > 30000" {
		t.Errorf("pushdown predicate = %q, want o_totalprice > 30000", push.Predicate)
	}
	trim = findRewrite(hv, KindTrim)
	if trim == nil {
		t.Fatal("highvalue-naive-j1: no projection-trim")
	}
	if got := strings.Join(trim.Columns, ","); got != "o_orderkey,o_custkey,o_orderstatus,o_orderdate,o_clerk,o_comment" {
		t.Errorf("highvalue-naive-j1 trim columns = %s (o_totalprice must stay live)", got)
	}
	if rf := findRefusal(hv, KindEarlyFilter); rf == nil {
		t.Error("highvalue-naive-j1: the mapper has no guard, early-filter should refuse")
	}

	// lateship-naive: the mapper's date guard discharges through the
	// shippedRecently helper into a raw-line prefilter; the count(*)
	// reducer trims all eleven columns.
	ls := jobReport(t, rep, "lateship-naive-j1")
	ef := findRewrite(ls, KindEarlyFilter)
	if ef == nil {
		t.Fatalf("lateship-naive-j1: no early-filter:\n%s", rep.Format())
	}
	if ef.Predicate != "l_shipdate >= 9300" {
		t.Errorf("early-filter predicate = %q, want l_shipdate >= 9300", ef.Predicate)
	}
	if ef.Path != "shippedRecently" {
		t.Errorf("early-filter path = %q, want shippedRecently", ef.Path)
	}
	if ef.prefilter == nil {
		t.Error("early-filter carries no runtime prefilter")
	}
	trim = findRewrite(ls, KindTrim)
	if trim == nil || len(trim.Columns) != 11 {
		t.Errorf("lateship-naive-j1: want an 11-column trim, got %+v", trim)
	}
	if rf := findRefusal(ls, KindPushdown); rf == nil {
		t.Error("lateship-naive-j1: len(values) reducer, pushdown should refuse")
	}

	// The report must explain itself: every rewrite and refusal above is
	// visible in the human-readable rendering.
	text := rep.Format()
	for _, want := range []string{
		"early-filter", "reducer-pushdown", "projection-trim",
		"o_totalprice > 30000", "shippedRecently", "refused",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Format() is missing %q", want)
		}
	}
	if !strings.Contains(rep.JSON(), "\"kind\": \"early-filter\"") {
		t.Error("JSON() is missing the early-filter rewrite")
	}
}

func workload(t *testing.T) (*mapreduce.DFS, *dbms.Database) {
	t.Helper()
	dfs := mapreduce.NewDFS()
	db := dbms.NewDatabase()
	cat := queries.Catalog()
	tpch, err := datagen.TPCH(datagen.DefaultTPCH())
	if err != nil {
		t.Fatal(err)
	}
	clicks, err := datagen.Clickstream(datagen.DefaultClicks())
	if err != nil {
		t.Fatal(err)
	}
	for _, tables := range []datagen.Tables{tpch, clicks} {
		for name, rows := range tables {
			schema, _ := cat.Table(name)
			dfs.Write(translator.TablePath(name), datagen.Lines(rows))
			db.Load(name, schema, rows)
		}
	}
	return dfs, db
}

func runProgram(t *testing.T, dfs *mapreduce.DFS, p *userjobs.Program, workers int) (*mapreduce.ChainStats, []string) {
	t.Helper()
	eng, err := mapreduce.NewEngine(dfs, mapreduce.SmallCluster())
	if err != nil {
		t.Fatal(err)
	}
	eng.SetWorkers(workers)
	stats, err := eng.RunChain(p.Jobs)
	if err != nil {
		t.Fatalf("%s: %v", p.Jobs[0].Name, err)
	}
	rows, err := p.ReadResult(dfs)
	if err != nil {
		t.Fatal(err)
	}
	return stats, dbms.SortedLines(rows)
}

func oracleLines(t *testing.T, db *dbms.Database, sql string) []string {
	t.Helper()
	root, err := queries.Plan(sql)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dbms.Execute(root, db)
	if err != nil {
		t.Fatal(err)
	}
	return dbms.SortedLines(res.Rows)
}

// TestOptimizedProgramsByteIdentical is the end-to-end proof: applying
// the inferred rewrites leaves every program's result rows byte-identical
// to both the unoptimized run and the DBMS oracle — at 1, 2 and 8
// workers — while measurably shrinking the map output.
func TestOptimizedProgramsByteIdentical(t *testing.T) {
	rep := analyzeCorpus(t)
	dfs, db := workload(t)

	for _, base := range userjobs.All() {
		name := base.Jobs[0].Name
		baseStats, baseRows := runProgram(t, dfs, base, 1)
		oracle := oracleLines(t, db, base.OracleSQL)
		if len(baseRows) == 0 {
			t.Fatalf("%s: empty baseline result", name)
		}

		for _, workers := range []int{1, 2, 8} {
			var opt *userjobs.Program
			for _, p := range userjobs.All() {
				if p.Jobs[0].Name == name {
					opt = p
				}
			}
			n := rep.Apply(opt.Jobs)
			if n == 0 {
				t.Fatalf("%s: Apply installed no rewrites", name)
			}
			optStats, optRows := runProgram(t, dfs, opt, workers)

			if len(optRows) != len(baseRows) {
				t.Fatalf("%s workers=%d: %d rows optimized, %d baseline", name, workers, len(optRows), len(baseRows))
			}
			for i := range optRows {
				if optRows[i] != baseRows[i] {
					t.Fatalf("%s workers=%d row %d: optimized %q, baseline %q", name, workers, i, optRows[i], baseRows[i])
				}
				if optRows[i] != oracle[i] {
					t.Fatalf("%s workers=%d row %d: optimized %q, oracle %q", name, workers, i, optRows[i], oracle[i])
				}
			}

			ob, bb := optStats.Jobs[0].MapOutputBytes, baseStats.Jobs[0].MapOutputBytes
			if ob >= bb {
				t.Errorf("%s workers=%d: map output %d bytes, baseline %d — the rewrites saved nothing", name, workers, ob, bb)
			}
			switch name {
			case "highvalue-naive-j1":
				if optStats.Jobs[0].MapOutputRecords >= baseStats.Jobs[0].MapOutputRecords {
					t.Errorf("%s workers=%d: pushdown did not drop map-output records", name, workers)
				}
			case "lateship-naive-j1":
				if optStats.Jobs[0].MapRecordsFiltered == 0 {
					t.Errorf("%s workers=%d: prefilter never fired", name, workers)
				}
			}
			if optStats.Jobs[0].PredictedTime <= 0 {
				t.Errorf("%s workers=%d: cost model produced no prediction", name, workers)
			}
		}
	}
}

// TestApplyTranslation checks the translator-side path: scan facts from
// a translated query install as prefilters and preserve results exactly.
func TestApplyTranslation(t *testing.T) {
	dfs, db := workload(t)
	sql := "SELECT l_shipmode, count(*) AS ship_count FROM lineitem WHERE l_shipdate >= 9300 GROUP BY l_shipmode"

	run := func(optimize bool) []string {
		root, err := queries.Plan(sql)
		if err != nil {
			t.Fatal(err)
		}
		name := "lateship-plain"
		if optimize {
			name = "lateship-manimal"
		}
		tr, err := translator.Translate(root, translator.YSmart, translator.Options{QueryName: name})
		if err != nil {
			t.Fatal(err)
		}
		if optimize {
			applied, _ := ApplyTranslation(tr)
			if len(applied) == 0 {
				t.Fatal("no scan facts applied to a filtered scan")
			}
			if text := translator.FormatScanFacts(applied, nil); !strings.Contains(text, "early-filter") {
				t.Errorf("FormatScanFacts missing the applied filter: %s", text)
			}
		}
		eng, err := mapreduce.NewEngine(dfs, mapreduce.SmallCluster())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RunChain(tr.Jobs); err != nil {
			t.Fatal(err)
		}
		lines, err := dfs.Read(tr.Output)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]exec.Row, 0, len(lines))
		for _, line := range lines {
			row, err := exec.DecodeRow(line, tr.OutputSchema)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row)
		}
		return dbms.SortedLines(rows)
	}

	plain := run(false)
	opt := run(true)
	oracle := oracleLines(t, db, sql)
	if len(plain) == 0 || len(plain) != len(opt) || len(plain) != len(oracle) {
		t.Fatalf("row counts differ: plain %d, optimized %d, oracle %d", len(plain), len(opt), len(oracle))
	}
	for i := range plain {
		if plain[i] != opt[i] || plain[i] != oracle[i] {
			t.Fatalf("row %d: plain %q, optimized %q, oracle %q", i, plain[i], opt[i], oracle[i])
		}
	}
}
