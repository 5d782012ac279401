package handcoded

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ysmart/internal/datagen"
	"ysmart/internal/dbms"
	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/queries"
	"ysmart/internal/translator"
)

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

func runProgram(t *testing.T, p *Program, dfs *mapreduce.DFS) ([]exec.Row, *mapreduce.ChainStats) {
	t.Helper()
	eng, err := mapreduce.NewEngine(dfs, mapreduce.SmallCluster())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.RunChain(p.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := p.ReadResult(dfs)
	if err != nil {
		t.Fatal(err)
	}
	return rows, stats
}

func oracle(t *testing.T, db *dbms.Database, sql string) []exec.Row {
	t.Helper()
	root, err := queries.Plan(sql)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dbms.Execute(root, db)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

// nullSchema is one TypeNull column per field of line: decoded over it, each
// field is typed by its syntax, so numbers compare as numbers.
func nullSchema(line string) *exec.Schema {
	s := &exec.Schema{Cols: make([]exec.Column, strings.Count(line, "\t")+1)}
	for i := range s.Cols {
		s.Cols[i] = exec.Column{Name: fmt.Sprint("c", i), Type: exec.TypeNull}
	}
	return s
}

// sameMultiset compares rows up to order with float tolerance.
func sameMultiset(t *testing.T, got, want []exec.Row) {
	t.Helper()
	gl, wl := dbms.SortedLines(got), dbms.SortedLines(want)
	if len(gl) != len(wl) {
		t.Fatalf("rows = %d, want %d\n got: %v\nwant: %v", len(gl), len(wl), gl, wl)
	}
	for i := range gl {
		if gl[i] != wl[i] {
			// Allow float wobble: parse and compare numerically.
			g, errG := exec.DecodeRow(gl[i], nullSchema(gl[i]))
			w, errW := exec.DecodeRow(wl[i], nullSchema(wl[i]))
			if errG != nil || errW != nil || len(g) != len(w) {
				t.Fatalf("row %d: got %q, want %q", i, gl[i], wl[i])
			}
			for c := range g {
				gf, gok := g[c].AsFloat()
				wf, wok := w[c].AsFloat()
				if gok && wok {
					diff := gf - wf
					if diff < 0 {
						diff = -diff
					}
					if diff <= 1e-9*(1+wf) && diff >= -1e-9*(1+wf) {
						continue
					}
				}
				if exec.Compare(g[c], w[c]) != 0 {
					t.Fatalf("row %d col %d: got %v, want %v", i, c, g[c], w[c])
				}
			}
		}
	}
}

func TestQAGGMatchesOracle(t *testing.T) {
	dfs, db := workload(t)
	p := QAGG("qagg")
	rows, stats := runProgram(t, p, dfs)
	sameMultiset(t, rows, oracle(t, db, queries.QAGG))
	if stats.NumJobs() != 1 {
		t.Errorf("jobs = %d, want 1", stats.NumJobs())
	}
}

func TestQCSAMatchesOracle(t *testing.T) {
	dfs, db := workload(t)
	p := QCSA("qcsa")
	rows, stats := runProgram(t, p, dfs)
	sameMultiset(t, rows, oracle(t, db, queries.QCSA))
	if stats.NumJobs() != 2 {
		t.Errorf("jobs = %d, want 2 (paper §I: single job plus final aggregation)", stats.NumJobs())
	}
	// One scan of clicks only.
	if got := stats.Jobs[0].MapInputBytes; got != dfs.SizeBytes(translator.TablePath("clicks")) {
		t.Errorf("job1 scanned %d bytes, want one clicks scan", got)
	}
}

// TestChainRunsAsListed: the engine runs a chain in the order given and
// does not reorder it by what the jobs read. Q-CSA's two jobs listed the
// wrong way round fail at the first, which reads the path the second
// writes: a FileNotFoundError names that path, and the second job never
// runs.
func TestChainRunsAsListed(t *testing.T) {
	dfs, _ := workload(t)
	p := QCSA("qcsa")
	eng, err := mapreduce.NewEngine(dfs, mapreduce.SmallCluster())
	if err != nil {
		t.Fatal(err)
	}
	first, second := p.Jobs[1], p.Jobs[0]
	stats, err := eng.RunChain([]*mapreduce.Job{first, second})
	var nf *mapreduce.FileNotFoundError
	if stats != nil || !errors.As(err, &nf) || nf.Path != second.Output || !strings.Contains(err.Error(), "job "+first.Name) {
		t.Fatalf("stats %v, err %v; want %s to fail reading %s", stats, err, first.Name, second.Output)
	}
	if _, err := dfs.Read(second.Output); !errors.As(err, &nf) {
		t.Errorf("%s ran after the chain failed", second.Name)
	}
}

func TestQ21MatchesOracle(t *testing.T) {
	dfs, db := workload(t)
	p := Q21("q21")
	rows, stats := runProgram(t, p, dfs)
	sameMultiset(t, rows, oracle(t, db, queries.Q21))
	if stats.NumJobs() != 1 {
		t.Errorf("jobs = %d, want 1", stats.NumJobs())
	}
}

// TestHandCodedBeatsYSmartSlightly: the paper measures YSmart within 17% of
// hand-coded on Q21 (§VII.C). Our hand-coded program must be at least as
// fast (smaller map output, short-path reduce), and YSmart must be close.
func TestHandCodedBeatsYSmartSlightly(t *testing.T) {
	dfs, _ := workload(t)
	hand := Q21("q21-hand")
	_, handStats := runProgram(t, hand, dfs)

	root, err := queries.Plan(queries.Q21)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translator.Translate(root, translator.YSmart, translator.Options{QueryName: "q21-ys"})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := mapreduce.NewEngine(dfs, mapreduce.SmallCluster())
	if err != nil {
		t.Fatal(err)
	}
	ysStats, err := eng.RunChain(tr.Jobs)
	if err != nil {
		t.Fatal(err)
	}

	if handStats.TotalShuffleBytes() > ysStats.TotalShuffleBytes() {
		t.Errorf("hand-coded shuffle %d > ysmart %d, want <=",
			handStats.TotalShuffleBytes(), ysStats.TotalShuffleBytes())
	}
	if handStats.TotalTime() > ysStats.TotalTime() {
		t.Errorf("hand-coded %.0fs slower than ysmart %.0fs",
			handStats.TotalTime(), ysStats.TotalTime())
	}
	// YSmart stays within 2x of hand-coded (the paper saw 1.17x).
	if ysStats.TotalTime() > 2*handStats.TotalTime() {
		t.Errorf("ysmart %.0fs more than 2x hand-coded %.0fs",
			ysStats.TotalTime(), handStats.TotalTime())
	}
}
