package translator

import (
	"fmt"
	"sort"
	"strings"

	"ysmart/internal/mapreduce"
	"ysmart/internal/plan"
)

// ScanFact describes the map-side selection of one base-table input of a
// lowered job: either a raw-line Prefilter that discharges exactly the
// filters the mapper evaluates adjacent to the scan, or the reason no
// safe prefilter exists. ApplyScanFacts consumes these facts to install
// mapreduce.Input.Prefilter early filters under -manimal, and
// FormatScanFacts prints them verbatim.
// Facts cover base-table inputs only; intermediate inputs read other
// jobs' outputs and are never prefiltered.
type ScanFact struct {
	// Job names the mapreduce.Job owning the input (CommonJob inputs
	// build 1:1, in order, onto the job's Inputs).
	Job string
	// InputIdx indexes the owning job's Inputs slice.
	InputIdx int
	// Table is the base table the input scans; Path is its DFS path.
	Table string
	Path  string
	// PredSQL renders the discharged predicates in SQL, one conjunct per
	// entry (a shared scan contributes one OR-across-streams entry).
	PredSQL []string
	// Prefilter is the raw-line early filter, nil when refused. It wraps
	// the mapper's own decode-and-filter path, so it skips a line exactly
	// when the mapper would have produced no output and no error for it;
	// lines that fail to decode or evaluate are kept so the mapper still
	// surfaces the error.
	Prefilter func(line string) bool
	// Refusal explains a nil Prefilter.
	Refusal string
}

// filterSQL renders a run of chain Filter nodes as SQL conjuncts.
func filterSQL(nodes []plan.Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.(*plan.Filter).Cond.SQL()
	}
	return out
}

// ApplyScanFacts installs the translation's scan facts as raw-line
// prefilters on its jobs — the MANIMAL pipeline applied to generated
// code, where the facts come from the plan instead of the AST
// (internal/optanalysis derives them for hand-written jobs). It returns
// the facts it applied and the ones the translator refused.
func ApplyScanFacts(tr *Translation) (applied, refused []ScanFact) {
	// The translation now carries rewrites: reuse artifact keys must fold
	// in the optimizer dimension so optimized and plain artifacts never
	// mix (ArtifactKey, mirroring CacheKeyOpt).
	tr.Optimized = true
	byName := map[string]*mapreduce.Job{}
	for _, j := range tr.Jobs {
		byName[j.Name] = j
	}
	for _, f := range tr.ScanFacts {
		job := byName[f.Job]
		if f.Refusal != "" || f.Prefilter == nil || job == nil || f.InputIdx < 0 || f.InputIdx >= len(job.Inputs) {
			refused = append(refused, f)
			continue
		}
		job.Inputs[f.InputIdx].Prefilter = f.Prefilter
		applied = append(applied, f)
	}
	return applied, refused
}

// FormatScanFacts renders scan facts the way optanalysis's static report
// renders rewrites, for `-explain`-style output on translated queries.
func FormatScanFacts(applied, refused []ScanFact) string {
	var b strings.Builder
	fmt.Fprintf(&b, "manimal: %d scan prefilter(s) applied, %d refused\n", len(applied), len(refused))
	all := append(append([]ScanFact{}, applied...), refused...)
	sort.Slice(all, func(i, k int) bool {
		if all[i].Job != all[k].Job {
			return all[i].Job < all[k].Job
		}
		return all[i].InputIdx < all[k].InputIdx
	})
	for _, f := range all {
		if f.Refusal != "" || f.Prefilter == nil {
			reason := f.Refusal
			if reason == "" {
				reason = "no prefilter derived"
			}
			fmt.Fprintf(&b, "  - refused %s input[%d] (%s): %s\n", f.Job, f.InputIdx, f.Table, reason)
			continue
		}
		fmt.Fprintf(&b, "  + early-filter %s input[%d] on %s: %s\n",
			f.Job, f.InputIdx, f.Table, strings.Join(f.PredSQL, " AND "))
	}
	return b.String()
}
