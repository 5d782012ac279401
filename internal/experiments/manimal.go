package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ysmart/internal/dbms"
	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/optanalysis"
	"ysmart/internal/queries"
	"ysmart/internal/translator"
	"ysmart/internal/userjobs"
)

// ManimalRow is one query of the MANIMAL ablation: the same program run
// with the static-analysis rewrites off and on.
type ManimalRow struct {
	Query  string
	Source string // "user-job" (AST analysis) or "translated" (plan scan facts)
	// Rewrites counts the optimizations installed on the "on" run.
	Rewrites int
	// Map-output volume, the byte stream the shuffle must carry.
	OffBytes, OnBytes int64
	OffRecs, OnRecs   int64
	// Filtered counts raw input lines the early filter skipped before the
	// map function ran (on-run only).
	Filtered int64
	// Simulated chain times from the cost model.
	OffTime, OnTime float64
	// ResultOK records that the two runs' result rows were byte-identical.
	ResultOK bool
	// RunOff and RunOn carry full breakdowns for the -json output.
	RunOff, RunOn Run
}

// ManimalResult is the `-fig manimal` ablation: analysis on/off per query.
type ManimalResult struct {
	Rows []ManimalRow
}

// moduleRoot walks up from the working directory to the enclosing go.mod,
// so the source analysis finds the user-job corpus from any subdirectory.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("no go.mod above %s: -fig manimal needs the module source", dir)
		}
	}
}

// Manimal measures the MANIMAL-style static optimizer: each naive user
// job (and one translated query) runs with the rewrites off and on, and
// the row reports the map-output bytes/records saved, the raw lines the
// early filter skipped, the cost model's predicted-time shift, and
// whether the result rows stayed byte-identical.
func Manimal(w *Workload) (*ManimalResult, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	rep, err := optanalysis.Analyze(root, []string{filepath.Join("internal", "userjobs")})
	if err != nil {
		return nil, err
	}

	out := &ManimalResult{}
	// Paper-scale costing (like the other figures): the off and on runs
	// share the scale, so the predicted-time delta is the rewrites'.
	cluster := mapreduce.SmallCluster()
	cluster.DataScale = w.TPCHScale(tpchSmallBytes)
	runJobs := func(jobs []*mapreduce.Job) (*mapreduce.ChainStats, *mapreduce.DFS, error) {
		dfs := w.FreshDFS()
		eng, err := w.newEngine(dfs, cluster)
		if err != nil {
			return nil, nil, err
		}
		stats, err := eng.RunChain(jobs)
		return stats, dfs, err
	}

	for _, off := range userjobs.All() {
		name := off.Jobs[0].Name
		offStats, offDFS, err := runJobs(off.Jobs)
		if err != nil {
			return nil, fmt.Errorf("%s off: %w", name, err)
		}
		var on *userjobs.Program
		for _, p := range userjobs.All() {
			if p.Jobs[0].Name == name {
				on = p
			}
		}
		applied := rep.Apply(on.Jobs)
		onStats, onDFS, err := runJobs(on.Jobs)
		if err != nil {
			return nil, fmt.Errorf("%s on: %w", name, err)
		}
		offRows, err := off.ReadResult(offDFS)
		if err != nil {
			return nil, err
		}
		onRows, err := on.ReadResult(onDFS)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, manimalRow(
			name, "user-job", applied, offStats, onStats,
			sameLines(dbms.SortedLines(offRows), dbms.SortedLines(onRows))))
	}

	// One translated query, optimized from the plan's scan facts instead
	// of the AST: the same pipeline applied to generated code.
	sql := "SELECT l_shipmode, count(*) AS ship_count FROM lineitem WHERE l_shipdate >= 9300 GROUP BY l_shipmode"
	translated := func(label string, optimize bool) (*mapreduce.ChainStats, []exec.Row, int, error) {
		planRoot, err := queries.Plan(sql)
		if err != nil {
			return nil, nil, 0, err
		}
		tr, err := translator.Translate(planRoot, translator.YSmart, translator.Options{QueryName: label})
		if err != nil {
			return nil, nil, 0, err
		}
		applied := 0
		if optimize {
			a, _ := translator.ApplyScanFacts(tr)
			applied = len(a)
		}
		res, err := w.runPlan(tr, w.FreshDFS(), cluster, nil)
		if err != nil {
			return nil, nil, 0, err
		}
		rows, err := res.Rows()
		if err != nil {
			return nil, nil, 0, err
		}
		return res.Stats, rows, applied, nil
	}
	offStats, offRows, _, err := translated("manimal-off", false)
	if err != nil {
		return nil, err
	}
	onStats, onRows, applied, err := translated("manimal-on", true)
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, manimalRow(
		"Q-LATESHIP", "translated", applied, offStats, onStats,
		sameLines(dbms.SortedLines(offRows), dbms.SortedLines(onRows))))
	return out, nil
}

// manimalRow folds an off/on stat pair into one ablation row.
func manimalRow(query, source string, rewrites int, off, on *mapreduce.ChainStats, ok bool) ManimalRow {
	row := ManimalRow{
		Query: query, Source: source, Rewrites: rewrites,
		OffTime: off.TotalTime(), OnTime: on.TotalTime(),
		ResultOK: ok,
		RunOff:   runFromStats(query, "manimal-off", off),
		RunOn:    runFromStats(query, "manimal-on", on),
	}
	for _, j := range off.Jobs {
		row.OffBytes += j.MapOutputBytes
		row.OffRecs += j.MapOutputRecords
	}
	for _, j := range on.Jobs {
		row.OnBytes += j.MapOutputBytes
		row.OnRecs += j.MapOutputRecords
		row.Filtered += j.MapRecordsFiltered
	}
	return row
}

// sameLines reports element-wise equality of two sorted line slices.
func sameLines(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Format renders the ablation table.
func (r *ManimalResult) Format() string {
	var sb strings.Builder
	sb.WriteString("MANIMAL ablation: static-analysis rewrites off vs on (small cluster)\n")
	fmt.Fprintf(&sb, "  %-18s %-10s %8s %22s %18s %10s %13s %6s\n",
		"query", "source", "rewrites", "map-out bytes", "map-out records", "filtered", "time", "equal")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-18s %-10s %8d %10d->%-10d %8d->%-8d %10d %6.1f->%-6.1f %6v\n",
			row.Query, row.Source, row.Rewrites,
			row.OffBytes, row.OnBytes, row.OffRecs, row.OnRecs,
			row.Filtered, row.OffTime, row.OnTime, row.ResultOK)
	}
	return sb.String()
}

// BenchRows flattens the ablation into off/on row pairs.
func (r *ManimalResult) BenchRows() []BenchRow {
	rows := make([]BenchRow, 0, 2*len(r.Rows))
	for _, row := range r.Rows {
		off := benchRow("manimal", row.RunOff)
		on := benchRow("manimal", row.RunOn)
		off.ResultOK = row.ResultOK
		on.ResultOK = row.ResultOK
		rows = append(rows, off, on)
	}
	return rows
}
