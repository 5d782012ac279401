package translator

import (
	"math"
	"slices"
	"strings"
	"testing"

	"ysmart/internal/datagen"
	"ysmart/internal/dbms"
	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/queries"
)

// workload loads the standard data set into a fresh DFS and database,
// leaving out the tables named in skip.
func workload(t *testing.T, skip ...string) (*mapreduce.DFS, *dbms.Database) {
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
			if slices.Contains(skip, name) {
				continue
			}
			schema, ok := cat.Table(name)
			if !ok {
				t.Fatalf("no schema for %s", name)
			}
			dfs.Write(TablePath(name), datagen.Lines(rows))
			db.Load(name, schema, rows)
		}
	}
	return dfs, db
}

func translate(t *testing.T, sql string, mode Mode, opts Options) *Translation {
	t.Helper()
	root, err := queries.Plan(sql)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	tr, err := Translate(root, mode, opts)
	if err != nil {
		t.Fatalf("translate (%v): %v", mode, err)
	}
	return tr
}

// runMR executes a translation on a small cluster and returns the result.
func runMR(t *testing.T, tr *Translation, dfs *mapreduce.DFS) ([]exec.Row, *mapreduce.ChainStats) {
	t.Helper()
	eng, err := mapreduce.NewEngine(dfs, mapreduce.SmallCluster())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.RunChain(tr.Jobs)
	if err != nil {
		t.Fatalf("run (%v): %v", tr.Mode, err)
	}
	rows, err := tr.ReadResult(dfs)
	if err != nil {
		t.Fatalf("read result: %v", err)
	}
	return rows, stats
}

// assertSameRows compares two result sets up to row order, with relative
// tolerance on float columns (combiner merge order legitimately perturbs
// float sums in the last bits).
func assertSameRows(t *testing.T, schema *exec.Schema, got, want []exec.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row count %d, want %d\n got: %v\nwant: %v",
			len(got), len(want), dbms.SortedLines(got), dbms.SortedLines(want))
	}
	gl, wl := dbms.SortedLines(got), dbms.SortedLines(want)
	for i := range gl {
		if gl[i] == wl[i] {
			continue
		}
		gr, err := exec.DecodeRow(gl[i], schema)
		if err != nil {
			t.Fatalf("decode got row %q: %v", gl[i], err)
		}
		wr, err := exec.DecodeRow(wl[i], schema)
		if err != nil {
			t.Fatalf("decode want row %q: %v", wl[i], err)
		}
		for c := range gr {
			if valuesClose(gr[c], wr[c]) {
				continue
			}
			t.Fatalf("row %d col %d: got %v, want %v\n got: %q\nwant: %q",
				i, c, gr[c], wr[c], gl[i], wl[i])
		}
	}
}

func valuesClose(a, b exec.Value) bool {
	if a == b {
		return true
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if !aok || !bok {
		return exec.Compare(a, b) == 0
	}
	diff := math.Abs(af - bf)
	scale := math.Max(math.Abs(af), math.Abs(bf))
	return diff <= 1e-9*scale || diff <= 1e-12
}

var allModes = []Mode{OneToOne, PigLike, ICTCOnly, YSmart}

// TestAllQueriesAllModesMatchOracle is the central integration test: every
// workload query, under every translation mode, must produce exactly the
// rows the pipelined DBMS executor produces.
func TestAllQueriesAllModesMatchOracle(t *testing.T) {
	dfs, db := workload(t)
	for name, sql := range queries.Named() {
		root, err := queries.Plan(sql)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		oracle, err := dbms.Execute(root, db)
		if err != nil {
			t.Fatalf("%s oracle: %v", name, err)
		}
		for _, mode := range allModes {
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				tr := translate(t, sql, mode, Options{QueryName: name + "-" + mode.String()})
				rows, _ := runMR(t, tr, dfs)
				assertSameRows(t, tr.OutputSchema, rows, oracle.Rows)
			})
		}
	}
}

// TestJobCounts pins the number of generated jobs per query and mode to the
// paper's analysis (§VII.A.2, §VII.C, §VII.D).
func TestJobCounts(t *testing.T) {
	tests := []struct {
		query string
		sql   string
		mode  Mode
		want  int
	}{
		// Hive generates four jobs for Q17 (§VII.D); YSmart executes the
		// JOIN2 subtree in one job plus the final aggregation (§IV.B).
		{"Q17", queries.Q17, OneToOne, 4},
		{"Q17", queries.Q17, PigLike, 4},
		{"Q17", queries.Q17, ICTCOnly, 3},
		{"Q17", queries.Q17, YSmart, 2},
		// Q18: six operations; YSmart runs JOIN1+AGG1+JOIN2 in one job
		// (§VII.A.2), JOIN3+AGG2 in a second, and the sort in a third.
		{"Q18", queries.Q18, OneToOne, 6},
		{"Q18", queries.Q18, YSmart, 3},
		// Q21 subtree: five operations one-to-one (Fig. 9 case 1), three
		// jobs with IC+TC only (case 2), one job with all rules (case 3).
		{"Q21", queries.Q21, OneToOne, 5},
		{"Q21", queries.Q21, ICTCOnly, 3},
		{"Q21", queries.Q21, YSmart, 1},
		// Full Q21 (Fig. 8(b)): nine operations; YSmart runs the five-op
		// sub-tree as one job, then supplier/nation joins, the numwait
		// aggregation and the sort.
		{"Q21-full", queries.Q21Full, OneToOne, 9},
		{"Q21-full", queries.Q21Full, ICTCOnly, 7},
		{"Q21-full", queries.Q21Full, YSmart, 5},
		// Q-CSA: Hive executes six jobs, YSmart two (§VII.D).
		{"Q-CSA", queries.QCSA, OneToOne, 6},
		{"Q-CSA", queries.QCSA, YSmart, 2},
		// Q-AGG is one aggregation job everywhere.
		{"Q-AGG", queries.QAGG, OneToOne, 1},
		{"Q-AGG", queries.QAGG, YSmart, 1},
	}
	for _, tt := range tests {
		t.Run(tt.query+"/"+tt.mode.String(), func(t *testing.T) {
			tr := translate(t, tt.sql, tt.mode, Options{QueryName: "jc"})
			if got := tr.NumJobs(); got != tt.want {
				t.Errorf("jobs = %d, want %d\n%s", got, tt.want, tr.Describe())
			}
		})
	}
}

// TestQ21YSmartMergesAllFiveOps checks the composition of the single Q21
// job (paper Fig. 9 case 3).
func TestQ21YSmartMergesAllFiveOps(t *testing.T) {
	tr := translate(t, queries.Q21, YSmart, Options{QueryName: "q21"})
	if len(tr.Groups) != 1 {
		t.Fatalf("groups = %v", tr.Groups)
	}
	got := strings.Join(tr.Groups[0], "+")
	if got != "JOIN1+AGG1+JOIN2+AGG2+JOIN3" {
		t.Errorf("merged ops = %s", got)
	}
}

// TestSharedScanReducesInputBytes: YSmart's merged Q21 job must scan
// lineitem once where one-to-one scans it three times (§VII.C observation
// that three lineitem scans take 65% of the one-to-one time).
func TestSharedScanReducesInputBytes(t *testing.T) {
	dfs, _ := workload(t)
	lineitemBytes := dfs.SizeBytes(TablePath("lineitem"))

	oto := translate(t, queries.Q21, OneToOne, Options{QueryName: "q21-oto"})
	_, otoStats := runMR(t, oto, dfs)
	ys := translate(t, queries.Q21, YSmart, Options{QueryName: "q21-ys"})
	_, ysStats := runMR(t, ys, dfs)

	if got := otoStats.TotalMapInputBytes(); got < 3*lineitemBytes {
		t.Errorf("one-to-one map input %d, want >= 3 lineitem scans (%d)", got, 3*lineitemBytes)
	}
	// YSmart reads lineitem and orders once each, plus nothing else.
	ordersBytes := dfs.SizeBytes(TablePath("orders"))
	if got := ysStats.TotalMapInputBytes(); got != lineitemBytes+ordersBytes {
		t.Errorf("ysmart map input %d, want exactly %d (one scan of each table)",
			got, lineitemBytes+ordersBytes)
	}
	if ysStats.TotalTime() >= otoStats.TotalTime() {
		t.Errorf("ysmart %.0fs not faster than one-to-one %.0fs",
			ysStats.TotalTime(), otoStats.TotalTime())
	}
}

// TestSelfJoinSingleScanAblation: with shared scans disabled, the Q-CSA
// self-join reads clicks once per instance.
func TestSelfJoinSingleScanAblation(t *testing.T) {
	dfs, _ := workload(t)
	clicksBytes := dfs.SizeBytes(TablePath("clicks"))

	shared := translate(t, queries.QCSA, YSmart, Options{QueryName: "csa-shared"})
	_, sharedStats := runMR(t, shared, dfs)
	noShare := translate(t, queries.QCSA, YSmart, Options{QueryName: "csa-noshare", DisableSharedScan: true})
	_, noShareStats := runMR(t, noShare, dfs)

	if sharedStats.Jobs[0].MapInputBytes != clicksBytes {
		t.Errorf("shared scan job read %d bytes, want one clicks scan (%d)",
			sharedStats.Jobs[0].MapInputBytes, clicksBytes)
	}
	if noShareStats.Jobs[0].MapInputBytes != 3*clicksBytes {
		t.Errorf("unshared job read %d bytes, want three clicks scans (%d)",
			noShareStats.Jobs[0].MapInputBytes, 3*clicksBytes)
	}
}

// TestPigLikeShufflesMore: without projection pruning, Pig-like map output
// is strictly larger than Hive-like for the same query.
func TestPigLikeShufflesMore(t *testing.T) {
	dfs, _ := workload(t)
	hive := translate(t, queries.QCSA, OneToOne, Options{QueryName: "csa-hive"})
	_, hiveStats := runMR(t, hive, dfs)
	pig := translate(t, queries.QCSA, PigLike, Options{QueryName: "csa-pig"})
	_, pigStats := runMR(t, pig, dfs)
	if pigStats.TotalShuffleBytes() <= hiveStats.TotalShuffleBytes() {
		t.Errorf("pig shuffle %d, want > hive shuffle %d",
			pigStats.TotalShuffleBytes(), hiveStats.TotalShuffleBytes())
	}
	if pigStats.TotalTime() <= hiveStats.TotalTime() {
		t.Errorf("pig %.0fs, want slower than hive %.0fs",
			pigStats.TotalTime(), hiveStats.TotalTime())
	}
}

// TestCombinerOnQAGG: the Hive-style AGG job must shrink its shuffle with
// map-side hash aggregation (footnote 2: why Q-AGG is competitive).
func TestCombinerOnQAGG(t *testing.T) {
	dfs, _ := workload(t)
	with := translate(t, queries.QAGG, OneToOne, Options{QueryName: "qagg-comb"})
	_, withStats := runMR(t, with, dfs)
	without := translate(t, queries.QAGG, OneToOne, Options{QueryName: "qagg-nocomb", DisableCombiner: true})
	_, withoutStats := runMR(t, without, dfs)
	if withStats.TotalShuffleBytes() >= withoutStats.TotalShuffleBytes() {
		t.Errorf("combiner shuffle %d, want < %d",
			withStats.TotalShuffleBytes(), withoutStats.TotalShuffleBytes())
	}
}

// TestSPQuery: an operation-free query becomes a single map-only job.
func TestSPQuery(t *testing.T) {
	dfs, db := workload(t)
	sql := "SELECT uid, ts FROM clicks WHERE cid = 1"
	tr := translate(t, sql, YSmart, Options{QueryName: "sp"})
	if tr.NumJobs() != 1 {
		t.Fatalf("jobs = %d, want 1", tr.NumJobs())
	}
	rows, stats := runMR(t, tr, dfs)
	if !stats.Jobs[0].MapOnly {
		t.Error("SP job should be map-only")
	}
	root, _ := queries.Plan(sql)
	oracle, err := dbms.Execute(root, db)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, tr.OutputSchema, rows, oracle.Rows)
}

// TestExplainOutput sanity-checks Describe.
func TestExplainOutput(t *testing.T) {
	tr := translate(t, queries.Q17, YSmart, Options{QueryName: "q17"})
	d := tr.Describe()
	for _, want := range []string{"ysmart", "2 job", "AGG1", "JOIN2"} {
		if !strings.Contains(d, want) {
			t.Errorf("describe missing %q:\n%s", want, d)
		}
	}
}

// TestModeValidation rejects unknown modes.
func TestModeValidation(t *testing.T) {
	root, err := queries.Plan(queries.QAGG)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Translate(root, Mode(99), Options{}); err == nil {
		t.Error("unknown mode should error")
	}
}
