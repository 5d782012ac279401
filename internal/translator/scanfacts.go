package translator

import (
	"fmt"
	"sort"
	"strings"

	"ysmart/internal/mapreduce"
	"ysmart/internal/plan"
)

// ScanFact describes the map-side selection of one base-table input of a
// lowered job: the filters the mapper evaluates adjacent to the scan, or
// the reason no early filter exists. ApplyScanFacts reports the lines
// those filters drop as mapreduce.ErrFiltered under -manimal, and
// FormatScanFacts prints the facts verbatim.
// Facts cover base-table inputs only; intermediate inputs read other
// jobs' outputs and are never filtered early.
type ScanFact struct {
	// Job names the mapreduce.Job owning the input (CommonJob inputs
	// build 1:1, in order, onto the job's Inputs).
	Job string
	// InputIdx indexes the owning job's Inputs slice.
	InputIdx int
	// Table is the base table the input scans; Path is its DFS path.
	Table string
	Path  string
	// PredSQL renders the scan-adjacent predicates in SQL, one conjunct
	// per entry (a shared scan contributes one OR-across-streams entry).
	PredSQL []string
	// Refusal explains why the input gets no early filter ("" when it
	// does).
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

// scanFact is the early-filter fact of a single-stream scan of table under
// chain: the selections adjacent to the scan, or refusal when there are
// none.
func scanFact(job string, inputIdx int, table string, chain []plan.Node, refusal string) ScanFact {
	fact := ScanFact{Job: job, InputIdx: inputIdx, Table: table, Path: TablePath(table)}
	if n := mapFilterPrefixLen(chain); n == 0 {
		fact.Refusal = refusal
	} else {
		fact.PredSQL = filterSQL(chain[len(chain)-n:])
	}
	return fact
}

// ApplyScanFacts makes the translation's applicable scan facts early
// filters — the MANIMAL pipeline applied to generated code, where the
// facts come from the plan instead of the AST (internal/optanalysis
// derives them for hand-written jobs). It wraps each such input's mapper
// in an earlyFilter and returns the facts it applied and the ones the
// translator refused.
func ApplyScanFacts(tr *Translation) (applied, refused []ScanFact) {
	byName := map[string]*mapreduce.Job{}
	for _, j := range tr.Jobs {
		byName[j.Name] = j
	}
	for _, f := range tr.ScanFacts {
		job := byName[f.Job]
		if f.Refusal != "" || job == nil || f.InputIdx < 0 || f.InputIdx >= len(job.Inputs) {
			refused = append(refused, f)
			continue
		}
		job.Inputs[f.InputIdx].Mapper = &earlyFilter{job.Inputs[f.InputIdx].Mapper}
		applied = append(applied, f)
	}
	return applied, refused
}

// earlyFilter reports the lines a generated mapper drops silently as
// mapreduce.ErrFiltered. That is exact by construction: a generated
// mapper emits nothing, with no error, exactly when the selection it
// evaluates adjacent to the scan (ScanFact.PredSQL) rejects the line.
type earlyFilter struct{ mapper mapreduce.Mapper }

// NewMapTask implements mapreduce.Mapper: an instance over an instance of
// the generated mapper. The tee it passes that instance, built once,
// forwards each pair to the current line's emit and notes that the line
// produced one.
func (f *earlyFilter) NewMapTask() mapreduce.MapTask {
	m := f.mapper.NewMapTask()
	var emit mapreduce.Emit
	var emitted bool
	tee := func(key, value string) {
		emitted = true
		emit(key, value)
	}
	return mapreduce.MapperFunc(func(line string, lineEmit mapreduce.Emit) error {
		emit, emitted = lineEmit, false
		if err := m.Map(line, tee); err != nil || emitted {
			return err
		}
		return mapreduce.ErrFiltered
	})
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
		if f.Refusal != "" {
			fmt.Fprintf(&b, "  - refused %s input[%d] (%s): %s\n", f.Job, f.InputIdx, f.Table, f.Refusal)
			continue
		}
		fmt.Fprintf(&b, "  + early-filter %s input[%d] on %s: %s\n",
			f.Job, f.InputIdx, f.Table, strings.Join(f.PredSQL, " AND "))
	}
	return b.String()
}
