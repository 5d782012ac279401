package translator

import (
	"fmt"
	"sort"
	"strings"

	"ysmart/internal/cmf"
	"ysmart/internal/correlation"
	"ysmart/internal/exec"
	"ysmart/internal/plan"
	"ysmart/internal/sqlparser"
)

// keyPositions returns the partition-key columns of an operation input as
// positions in the input's (chain-top) schema. Joins use their equi-join
// keys; aggregations inside merged jobs use the chosen partition-key
// candidate (which must be plain column references — guaranteed, because
// only lineage-carrying columns can match another operation's key).
func keyPositions(op *correlation.Operation, inputIdx int) ([]int, error) {
	switch op.Kind {
	case correlation.KindJoin:
		if inputIdx == 0 {
			return op.Join.LeftKeys, nil
		}
		return op.Join.RightKeys, nil
	case correlation.KindAgg:
		agg := op.Agg
		childSchema := agg.Child.Schema()
		out := make([]int, 0, len(agg.PKChoice))
		for _, gi := range agg.PKChoice {
			ref, ok := agg.GroupBy[gi].(*sqlparser.ColumnRef)
			if !ok {
				return nil, fmt.Errorf("%s: partition-key column %s is computed", op.Name(), agg.GroupBy[gi].SQL())
			}
			idx, err := childSchema.Resolve(ref.Qualifier, ref.Name)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", op.Name(), err)
			}
			out = append(out, idx)
		}
		return out, nil
	case correlation.KindSort:
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown op kind")
	}
}

// traceKeyToBase maps the input's key positions down through the chain to
// base-table column positions, which shared-scan mappers key on.
func (lw *lowerer) traceKeyToBase(op *correlation.Operation, inputIdx int) ([]int, bool) {
	in := op.Inputs[inputIdx]
	positions, err := keyPositions(op, inputIdx)
	if err != nil || positions == nil {
		return nil, false
	}
	out := make([]int, len(positions))
	for i, pos := range positions {
		cur := pos
		for _, n := range in.Chain { // top-down toward the scan
			switch x := n.(type) {
			case *plan.Filter, *plan.Rebind, *plan.Limit:
				// position unchanged
			case *plan.Project:
				ref, ok := x.Exprs[cur].(*sqlparser.ColumnRef)
				if !ok {
					return nil, false
				}
				idx, err := x.Child.Schema().Resolve(ref.Qualifier, ref.Name)
				if err != nil {
					return nil, false
				}
				cur = idx
			default:
				return nil, false
			}
		}
		out[i] = cur
	}
	return out, true
}

// keySpec describes how an input keys its map output: the key value
// functions plus an optional non-default encoding (order-preserving keys
// for distributed sorts).
type keySpec struct {
	fns    []exec.Evaluator
	encode func([]exec.Value) string
}

// keyFns compiles the map-output key of an operation input against the
// reduce-side view of its rows. Standalone aggregation jobs key on the full
// grouping expressions (Hive's convention); merged aggregations key on the
// chosen partition-key candidate; joins key on their equi-join columns;
// distributed sorts key on their sort expressions with an order-preserving
// encoding so range partitions yield a total order.
func (lw *lowerer) keyFns(jb *jobBuild, op *correlation.Operation, inputIdx int, eff effView) (keySpec, error) {
	switch op.Kind {
	case correlation.KindJoin:
		positions, _ := keyPositions(op, inputIdx)
		fns := make([]exec.Evaluator, len(positions))
		for i, pos := range positions {
			effIdx, err := eff.index(pos)
			if err != nil {
				return keySpec{}, fmt.Errorf("%s key: %w", op.Name(), err)
			}
			fns[i] = projectionFns([]int{effIdx})[0]
		}
		return keySpec{fns: fns}, nil
	case correlation.KindAgg:
		exprs := op.Agg.GroupBy
		if len(jb.ops) > 1 {
			exprs = make([]sqlparser.Expr, len(op.Agg.PKChoice))
			for i, gi := range op.Agg.PKChoice {
				exprs[i] = op.Agg.GroupBy[gi]
			}
		}
		fns := make([]exec.Evaluator, len(exprs))
		for i, e := range exprs {
			ev, err := exec.Compile(e, eff.schema)
			if err != nil {
				return keySpec{}, fmt.Errorf("%s key %s: %w", op.Name(), e.SQL(), err)
			}
			fns[i] = ev
		}
		return keySpec{fns: fns}, nil
	case correlation.KindSort:
		if !lw.parallelSort(op) {
			// With a LIMIT the total order must be cut globally, so the
			// whole input funnels through one reduce group.
			return keySpec{}, nil
		}
		keys := op.Sort.Keys
		fns := make([]exec.Evaluator, len(keys))
		desc := make([]bool, len(keys))
		for i, k := range keys {
			ev, err := exec.Compile(k.Expr, eff.schema)
			if err != nil {
				return keySpec{}, fmt.Errorf("%s key %s: %w", op.Name(), k.Expr.SQL(), err)
			}
			fns[i] = ev
			desc[i] = k.Desc
		}
		return keySpec{
			fns:    fns,
			encode: func(vals []exec.Value) string { return exec.EncodeOrderedKey(vals, desc) },
		}, nil
	default:
		return keySpec{}, fmt.Errorf("unknown op kind")
	}
}

// parallelSort reports whether a sort runs with range-ordered keys over
// many reducers (possible whenever no LIMIT has to be applied globally).
func (lw *lowerer) parallelSort(op *correlation.Operation) bool {
	return !(op == lw.analysis.RootOp && lw.topLimit > 0)
}

// buildSimpleScanInput lowers a single-stream base-table input: the mapper
// decodes only the columns the plan demands of the scan, applies the whole
// transparent chain (selection and projection in the map phase, §V.A), and
// emits the chain-top row.
func (lw *lowerer) buildSimpleScanInput(cj *cmf.CommonJob, ss *sharedStream, slots map[slotKey]slot) error {
	scanEff := lw.view(ss.scan)
	stages, topEff, err := lowerChain(scanEff, ss.chain, lw.requiredOf)
	if err != nil {
		return fmt.Errorf("%s scan %s: %w", ss.op.Name(), ss.scan.Table, err)
	}
	jb := lw.jobOfOp(ss.op)
	spec, err := lw.keyFns(jb, ss.op, ss.key.inputIdx, topEff)
	if err != nil {
		return err
	}
	decode := newMapChain(ss.scan.Schema(), scanEff.cols, stages).decode
	fact := ScanFact{Job: cj.Name, InputIdx: len(cj.Inputs), Table: ss.scan.Table, Path: TablePath(ss.scan.Table)}
	if n := mapFilterPrefixLen(ss.chain); n == 0 {
		fact.Refusal = fmt.Sprintf("%s: no selection adjacent to the scan of %s", ss.op.Name(), ss.scan.Table)
	} else {
		fact.PredSQL = filterSQL(ss.chain[len(ss.chain)-n:])
	}
	lw.facts = append(lw.facts, fact)
	cj.Inputs = append(cj.Inputs, cmf.CommonInput{
		Path:      TablePath(ss.scan.Table),
		Decode:    decode,
		Key:       spec.fns,
		KeyEncode: spec.encode,
		Schema:    topEff.schema,
		Streams:   []cmf.Stream{{ID: ss.id}},
	})
	slots[ss.key] = slot{src: cmf.StreamSource(ss.id), eff: topEff}
	return nil
}

// buildSharedInput lowers a table read by several streams into one shared
// scan (§VI.A): the common mapper evaluates every stream's selection,
// emits the union of the required columns once, and tags the streams that
// must not see the pair. Non-selection chain work runs reduce-side per
// stream.
func (lw *lowerer) buildSharedInput(cj *cmf.CommonJob, table string, streams []*sharedStream, slots map[slotKey]slot, addOp func(cmf.Op)) error {
	// Union of required base columns across streams: the common value. The
	// mapper decodes those plus whatever only the map-side selections read.
	unionSet := make(map[int]bool)
	decodeSet := make(map[int]bool)
	for _, ss := range streams {
		for _, c := range ss.required {
			unionSet[c] = true
		}
		for _, c := range ss.keyBase {
			unionSet[c] = true
		}
		for _, c := range lw.requiredOf(ss.scan) {
			decodeSet[c] = true
		}
	}
	unionCols := sortedKeys(unionSet)
	unionPos := make(map[int]int, len(unionCols))
	for i, c := range unionCols {
		unionPos[c] = i
		decodeSet[c] = true
	}
	decodeCols := sortedKeys(decodeSet)
	decodePos := make(map[int]int, len(decodeCols))
	for i, c := range decodeCols {
		decodePos[c] = i
	}
	// narrow maps base-table columns to positions in the decoded row.
	narrow := func(cols []int) []int {
		out := make([]int, len(cols))
		for i, c := range cols {
			out[i] = decodePos[c]
		}
		return out
	}

	decodeSchema := streams[0].scan.Schema()
	input := cmf.CommonInput{
		Path: TablePath(table),
		Decode: func(scratch *exec.Row, line string) (exec.Row, error) {
			row, err := exec.DecodeColsInto(*scratch, line, decodeSchema, decodeCols)
			if row != nil {
				*scratch = row
			}
			return row, err
		},
		Key:    projectionFns(narrow(streams[0].keyBase)),
		Schema: restrictView(decodeSchema, unionCols).schema,
	}
	if !intsEqual(unionCols, decodeCols) {
		input.Project = narrow(unionCols)
	}

	fact := ScanFact{Job: cj.Name, InputIdx: len(cj.Inputs), Table: table, Path: TablePath(table)}
	var streamSQL []string

	for _, ss := range streams {
		// Map-side selection: the maximal run of Filters adjacent to the
		// scan (the bottom of the top-down chain).
		chain := ss.chain
		nFilters := mapFilterPrefixLen(chain)
		mapFilterNodes := chain[len(chain)-nFilters:]
		reduceChain := chain[:len(chain)-nFilters]

		// The stream's own scan schema carries its alias bindings.
		decoded := restrictView(ss.scan.Schema(), decodeCols).schema
		var preds []exec.Predicate
		for _, n := range mapFilterNodes {
			f := n.(*plan.Filter)
			pred, err := exec.CompilePredicate(f.Cond, decoded)
			if err != nil {
				return fmt.Errorf("%s selection %s: %w", ss.op.Name(), f.Cond.SQL(), err)
			}
			preds = append(preds, pred)
		}
		var filter exec.Predicate
		if len(preds) > 0 {
			preds := preds
			filter = func(r exec.Row) (bool, error) {
				for _, p := range preds {
					ok, err := p(r)
					if err != nil || !ok {
						return false, err
					}
				}
				return true, nil
			}
			streamSQL = append(streamSQL, "("+strings.Join(filterSQL(mapFilterNodes), " AND ")+")")
		} else if fact.Refusal == "" {
			// One unfiltered stream wants every line, so no early filter
			// can drop anything.
			fact.Refusal = fmt.Sprintf("shared scan of %s: stream %s.in%d has no map-side selection, so every line must reach its reducer",
				table, ss.op.Name(), ss.key.inputIdx)
		}
		input.Streams = append(input.Streams, cmf.Stream{ID: ss.id, Filter: filter})

		// Reduce side: project the union row down to this stream's own
		// required columns, then run the rest of the chain.
		streamEff := restrictView(ss.scan.Schema(), ss.required)
		src := cmf.Source{Stream: ss.id}
		if !intsEqual(ss.required, unionCols) {
			proj := make([]int, len(ss.required))
			for i, c := range ss.required {
				proj[i] = unionPos[c]
			}
			name := fmt.Sprintf("%s.in%d.narrow", ss.op.Name(), ss.key.inputIdx)
			addOp(&cmf.ProjectOp{OpName: name, In: src, Exprs: projectionFns(proj)})
			src = cmf.OpSource(name)
		}
		stages, topEff, err := lowerChain(streamEff, reduceChain, lw.requiredOf)
		if err != nil {
			return fmt.Errorf("%s shared scan %s: %w", ss.op.Name(), table, err)
		}
		src = stagesToOps(stages, src, fmt.Sprintf("%s.in%d", ss.op.Name(), ss.key.inputIdx), addOp)
		slots[ss.key] = slot{src: src, eff: topEff}
	}

	if fact.Refusal == "" {
		// The common mapper drops a line exactly when every stream's
		// selection rejects it.
		fact.PredSQL = []string{strings.Join(streamSQL, " OR ")}
	}
	lw.facts = append(lw.facts, fact)

	cj.Inputs = append(cj.Inputs, input)
	return nil
}

// buildIntermediateInput lowers an input that reads another job's output:
// the mapper strips the source tag, decodes the written rows, applies the
// chain, and keys on this operation's partition columns.
func (lw *lowerer) buildIntermediateInput(cj *cmf.CommonJob, op *correlation.Operation, inputIdx int, in *correlation.Input, streamID int, slots map[slotKey]slot) error {
	ref, ok := lw.written[in.Op]
	if !ok {
		return fmt.Errorf("internal: %s consumed before %s was lowered", in.Op.Name(), op.Name())
	}
	stages, topEff, err := lowerChain(ref.eff, in.Chain, lw.requiredOf)
	if err != nil {
		return fmt.Errorf("%s intermediate input: %w", op.Name(), err)
	}
	jb := lw.jobOfOp(op)
	spec, err := lw.keyFns(jb, op, inputIdx, topEff)
	if err != nil {
		return err
	}
	wantTag := ref.tag
	chain := newMapChain(ref.eff.schema, nil, stages)
	decode := func(scratch *exec.Row, line string) (exec.Row, error) {
		payload, ok := cmf.CutTag(line, wantTag)
		if !ok {
			return nil, nil // another merged job's rows in the shared file
		}
		return chain.decode(scratch, payload)
	}
	cj.Inputs = append(cj.Inputs, cmf.CommonInput{
		Path:      ref.path,
		Decode:    decode,
		Key:       spec.fns,
		KeyEncode: spec.encode,
		Schema:    topEff.schema,
		Streams:   []cmf.Stream{{ID: streamID}},
	})
	slots[slotKey{op.ID, inputIdx}] = slot{src: cmf.StreamSource(streamID), eff: topEff}
	return nil
}

// jobOfOp finds the job currently holding op. The lowerer only needs it to
// distinguish standalone from merged aggregations when keying.
func (lw *lowerer) jobOfOp(op *correlation.Operation) *jobBuild {
	return lw.jobLookup[op]
}

// mapFilterPrefixLen counts the Filter nodes adjacent to the bottom of a
// top-down chain — the selections a shared-scan mapper evaluates in place.
func mapFilterPrefixLen(chain []plan.Node) int {
	n := 0
	for i := len(chain) - 1; i >= 0; i-- {
		if _, ok := chain[i].(*plan.Filter); !ok {
			break
		}
		n++
	}
	return n
}

// sortedKeys lists a column set in ascending order.
func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}
