package translator

import (
	"fmt"

	"ysmart/internal/cmf"
	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/reuse"
)

// Result is one execution of a compiled plan.
type Result struct {
	Rows  []exec.Row
	Stats *mapreduce.ChainStats
	// Reuse is the rewrite that ran in the plan's place. Without a store it
	// is the identity rewrite: every job ran, nothing was looked up.
	Reuse *ReusePlan
}

// Run executes a compiled plan on an engine — the one way every surface
// (facade, server session, experiment harnesses) runs a Translation. tr is
// only read, so any number of engines may run it at once. store and epochs
// are ApplyReuseAt's: a nil store runs the plan as compiled and records
// nothing. A failed chain or an unreadable result records nothing either.
//
// The four calls are the benchmark ledger's rows translator.apply_reuse,
// mapreduce.run_chain, translator.read_result and translator.reuse_record,
// in that order.
func Run(tr *Translation, eng *mapreduce.Engine, store *reuse.Store, epochs map[string]int64) (*Result, error) {
	dfs := eng.DFS()
	rp := ApplyReuseAt(tr, store, dfs, epochs)
	stats, err := eng.RunChain(rp.Jobs)
	if err != nil {
		return nil, err
	}
	rows, err := rp.ReadResult(dfs)
	if err != nil {
		return nil, err
	}
	rp.Record(store, dfs, stats)
	return &Result{Rows: rows, Stats: stats, Reuse: rp}, nil
}

// readResult decodes the rows carrying tag from the result file at path.
func readResult(dfs *mapreduce.DFS, path, tag string, schema *exec.Schema) ([]exec.Row, error) {
	lines, err := dfs.Read(path)
	if err != nil {
		return nil, err
	}
	var rows []exec.Row
	for _, line := range lines {
		lineTag, payload := cmf.SplitTag(line)
		if lineTag != tag {
			continue
		}
		row, err := exec.DecodeRow(payload, schema)
		if err != nil {
			return nil, fmt.Errorf("result row %q: %w", line, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
