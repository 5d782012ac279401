package experiments

import (
	"fmt"
	"sort"
	"strings"

	"ysmart/internal/dbms"
	"ysmart/internal/mapreduce"
	"ysmart/internal/obs"
	"ysmart/internal/queries"
	"ysmart/internal/reuse"
	"ysmart/internal/translator"
)

// ReuseRow is one workload query run twice through a shared cross-query
// materialized-output store: a cold round that executes everything and
// records each job's output, then a warm replay that skips every job whose
// sub-plan artifact is still valid.
type ReuseRow struct {
	Query string
	// ColdJobs and WarmJobs count the jobs each round actually executed;
	// Skipped is the warm round's reuse hits (ColdJobs - WarmJobs).
	ColdJobs, WarmJobs, Skipped int
	// Cost-model chain times of the executed jobs; a fully-warm chain is 0.
	ColdTime, WarmTime float64
	// BytesSaved is the artifact bytes the warm round read instead of
	// recomputing; PredictedSaved the cost model's estimate of the skipped
	// work.
	BytesSaved     int64
	PredictedSaved float64
	// ResultOK records that cold and warm result rows were byte-identical.
	ResultOK bool
	// RunCold and RunWarm carry the full breakdowns for -json output.
	RunCold, RunWarm Run
}

// ReuseResult is the `-fig reuse` figure: ReStore-style warm-vs-cold
// replay per workload query.
type ReuseResult struct {
	Rows []ReuseRow
}

// Reuse measures the cross-query reuse store on the whole workload
// (TPC-H + click-stream): every query runs cold into a shared store, then
// replays warm against it. The row reports jobs skipped, artifact bytes
// read in place of recomputation, the cost model's predicted-time delta,
// and whether the warm rows stayed byte-identical to the cold ones.
func Reuse(w *Workload) (*ReuseResult, error) {
	// One DFS and one store span the whole stream of queries — that is the
	// point of cross-query reuse. Each run versions the base tables by
	// their content, so an overwritten table would miss.
	dfs := w.FreshDFS()
	store := reuse.NewStore(0, nil)

	named := queries.Named()
	names := make([]string, 0, len(named))
	for name := range named {
		names = append(names, name)
	}
	sort.Strings(names)

	out := &ReuseResult{}
	for _, name := range names {
		root, err := queries.Plan(named[name])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		label := strings.ToLower(name)
		tr, err := translator.Translate(root, translator.YSmart, translator.Options{QueryName: label})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		round := func(system string) (*translator.Result, []string, error) {
			cluster := mapreduce.SmallCluster()
			cluster.DataScale = w.scaleFor(name, tpchSmallBytes)
			res, err := w.runPlan(tr, dfs, cluster, store)
			if err != nil {
				return nil, nil, fmt.Errorf("%s %s: %w", name, system, err)
			}
			rows, err := res.Rows()
			if err != nil {
				return nil, nil, fmt.Errorf("%s %s: %w", name, system, err)
			}
			return res, dbms.SortedLines(rows), nil
		}
		cold, coldLines, err := round("reuse-cold")
		if err != nil {
			return nil, err
		}
		warm, warmLines, err := round("reuse-warm")
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, ReuseRow{
			Query:          name,
			ColdJobs:       len(cold.Stats.Jobs),
			WarmJobs:       len(warm.Stats.Jobs),
			Skipped:        warm.Reuse.Skipped,
			ColdTime:       cold.Stats.TotalTime(),
			WarmTime:       warm.Stats.TotalTime(),
			BytesSaved:     warm.Reuse.ArtifactBytes,
			PredictedSaved: warm.Reuse.PredictedSavedSeconds,
			ResultOK:       sameLines(coldLines, warmLines),
			RunCold:        runFromStats(name, "reuse-cold", cold.Stats),
			RunWarm:        runFromStats(name, "reuse-warm", warm.Stats),
		})
	}
	return out, nil
}

// Format renders the warm-vs-cold table.
func (r *ReuseResult) Format() string {
	var sb strings.Builder
	sb.WriteString("Cross-query reuse: cold run vs warm replay through a shared artifact store (small cluster)\n")
	fmt.Fprintf(&sb, "  %-8s %12s %8s %16s %12s %12s %6s\n",
		"query", "jobs", "skipped", "time", "bytes-read", "pred-saved", "equal")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-8s %5d->%-6d %8d %7.1f->%-7.1f %12s %11.1fs %6v\n",
			row.Query, row.ColdJobs, row.WarmJobs, row.Skipped,
			row.ColdTime, row.WarmTime,
			obs.FormatBytes(row.BytesSaved), row.PredictedSaved, row.ResultOK)
	}
	return sb.String()
}

// BenchRows flattens the figure into cold/warm row pairs; the warm row
// carries the reuse counters.
func (r *ReuseResult) BenchRows() []BenchRow {
	rows := make([]BenchRow, 0, 2*len(r.Rows))
	for _, row := range r.Rows {
		cold := benchRow("reuse", row.RunCold)
		warm := benchRow("reuse", row.RunWarm)
		cold.ResultOK = row.ResultOK
		warm.ResultOK = row.ResultOK
		warm.JobsSkipped = row.Skipped
		warm.BytesSaved = row.BytesSaved
		rows = append(rows, cold, warm)
	}
	return rows
}
