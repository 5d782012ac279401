package translator

import (
	"context"
	"fmt"

	"ysmart/internal/cmf"
	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/reuse"
)

// Result is one execution of a compiled plan. The result itself stays where
// the chain (or the reuse store) left it — the DFS file's shared, immutable
// line slice — and is read through EachRow; Rows decodes it for callers that
// want values.
type Result struct {
	Stats *mapreduce.ChainStats
	// Reuse is the rewrite that ran in the plan's place. Without a store it
	// is the identity rewrite: every job ran, nothing was looked up.
	Reuse *ReusePlan

	file resultFile
}

// EachRow calls fn with the codec text (exec.EncodeRow's format, typed by the
// plan's output schema) of every result row in file order, stopping at fn's
// first error, which comes back naming the offending line. The text is not
// checked on the way: fn's own parse is the check.
func (r *Result) EachRow(fn func(payload string) error) error { return r.file.each(fn) }

// Rows decodes the result.
func (r *Result) Rows() ([]exec.Row, error) { return r.file.rows() }

// Run executes a compiled plan on an engine — the one way every surface
// (facade, server session, experiment harnesses) runs a Translation. tr is
// only read, so any number of engines may run it at once. store and epochs
// are ApplyReuseAt's: nil epochs version the tables by content, a nil store
// runs the plan as compiled and records nothing. A failed chain or an
// unreadable result records nothing either: whenever the run is about to
// publish artifacts, the fresh result file is verified first (every line's
// field count and every field's parse, no row built), so the store only ever
// holds root artifacts that passed. A run that publishes nothing — no store,
// or a full-chain hit on an artifact that was verified when it was recorded
// — leaves the parse to the result's reader. ctx stops the chain at the
// engine's work-item boundaries (Engine.RunChainContext); a stopped run
// fails with ctx's error and, like any failed chain, records nothing, so an
// artifact is only ever served for the input state it was computed from.
//
// The four calls are the benchmark ledger's rows translator.apply_reuse,
// mapreduce.run_chain, translator.read_result and translator.reuse_record,
// in that order.
func Run(ctx context.Context, tr *Translation, eng *mapreduce.Engine, store *reuse.Store, epochs map[string]int64) (*Result, error) {
	dfs := eng.DFS()
	rp := ApplyReuseAt(tr, store, dfs, epochs)
	stats, err := eng.RunChainContext(ctx, rp.Jobs)
	if err != nil {
		return nil, err
	}
	file, err := openResult(dfs, rp.Output, rp.OutputTag, rp.OutputSchema)
	if err != nil {
		return nil, err
	}
	if len(rp.records) > 0 {
		if err := file.verify(); err != nil {
			return nil, err
		}
		rp.Record(store, dfs, stats)
	}
	return &Result{Stats: stats, Reuse: rp, file: file}, nil
}

// resultFile is a query result as it sits in the DFS: the file's line slice
// (shared with the DFS and, for a reused result, with the store — never
// written), the tag that marks the result's lines among a shared job's
// other outputs, and the schema that types them.
type resultFile struct {
	lines  []string
	tag    string
	schema *exec.Schema
}

// openResult reads the result file at path.
func openResult(dfs *mapreduce.DFS, path, tag string, schema *exec.Schema) (resultFile, error) {
	lines, err := dfs.Read(path)
	return resultFile{lines: lines, tag: tag, schema: schema}, err
}

// each is the one iterator over a result file: fn sees the payload of every
// line carrying the file's tag, in order; its first error ends the walk and
// is returned naming the line.
func (f resultFile) each(fn func(payload string) error) error {
	for _, line := range f.lines {
		payload, ok := cmf.CutTag(line, f.tag)
		if !ok {
			continue
		}
		if err := fn(payload); err != nil {
			return fmt.Errorf("result row %q: %w", line, err)
		}
	}
	return nil
}

// rows decodes every result line.
func (f resultFile) rows() ([]exec.Row, error) {
	var rows []exec.Row
	err := f.each(func(payload string) error {
		row, err := exec.DecodeRow(payload, f.schema)
		if err != nil {
			return err
		}
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// verify is rows without the rows: the same pass, the same errors. A field
// exec.CutField finds canonical is one DecodeField accepts, so only the rest
// are parsed.
func (f resultFile) verify() error {
	return f.each(func(payload string) error {
		return exec.ScanRow(payload, f.schema, func(col int, field, _ string, canonical bool) error {
			if canonical {
				return nil
			}
			_, err := exec.DecodeField(field, f.schema.Cols[col].Type)
			return err
		})
	})
}

// readResult decodes the rows carrying tag from the result file at path.
func readResult(dfs *mapreduce.DFS, path, tag string, schema *exec.Schema) ([]exec.Row, error) {
	f, err := openResult(dfs, path, tag, schema)
	if err != nil {
		return nil, err
	}
	return f.rows()
}
