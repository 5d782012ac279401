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
// functions plus, for a distributed sort, the descending flags of its
// order-preserving encoding (cmf.CommonInput.Desc).
type keySpec struct {
	fns  []exec.Evaluator
	desc []bool
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
		return keySpec{fns: fns, desc: desc}, nil
	default:
		return keySpec{}, fmt.Errorf("unknown op kind")
	}
}

// parallelSort reports whether a sort runs with range-ordered keys over
// many reducers (possible whenever no LIMIT has to be applied globally).
func (lw *lowerer) parallelSort(op *correlation.Operation) bool {
	return !(op == lw.analysis.RootOp && lw.topLimit > 0)
}

// buildStreamInput lowers a single-stream input of op — a base-table scan
// (tag "") or another job's output — into one common input. Its line plan
// keeps the lines carrying tag, decodes cols of schema (nil: all of them)
// and applies the whole transparent chain above view, selection and
// projection in the map phase (§V.A); the input keys the chain-top row on
// op's partition columns.
func (lw *lowerer) buildStreamInput(cj *cmf.CommonJob, op *correlation.Operation, inputIdx, streamID int,
	path, tag string, schema *exec.Schema, cols []int, view effView, chain []plan.Node, slots map[slotKey]slot) error {
	stages, topEff, err := lowerChain(view, chain, lw.requiredOf)
	if err != nil {
		return fmt.Errorf("%s input %d: %w", op.Name(), inputIdx, err)
	}
	spec, err := lw.keyFns(lw.jobOfOp(op), op, inputIdx, topEff)
	if err != nil {
		return err
	}
	cj.Inputs = append(cj.Inputs, cmf.CommonInput{
		Path:    path,
		Decode:  cmf.NewDecoder(tag, schema, cols, stages),
		Key:     spec.fns,
		Desc:    spec.desc,
		Schema:  topEff.schema,
		Streams: []cmf.Stream{{ID: streamID}},
	})
	slots[slotKey{op.ID, inputIdx}] = slot{src: cmf.StreamSource(streamID), eff: topEff}
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
		Path:   TablePath(table),
		Decode: cmf.NewDecoder("", decodeSchema, decodeCols, nil),
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
