package translator

import (
	"fmt"

	"ysmart/internal/cmf"
	"ysmart/internal/correlation"
	"ysmart/internal/exec"
)

// buildOp lowers one operation onto the job's per-key dataflow graph.
func (lw *lowerer) buildOp(cj *cmf.CommonJob, jb *jobBuild, op *correlation.Operation, srcs []cmf.Source, effs []effView, topLimit int, addOp func(cmf.Op)) error {
	switch op.Kind {
	case correlation.KindJoin:
		j := op.Join
		effConcat := effs[0].concat(effs[1], j.Left.Schema().Len())
		var residual exec.Predicate
		if j.Residual != nil {
			pred, err := exec.CompilePredicate(j.Residual, effConcat.schema)
			if err != nil {
				return fmt.Errorf("%s residual: %w", op.Name(), err)
			}
			residual = pred
		}
		addOp(&cmf.JoinOp{
			OpName:     op.Name(),
			Left:       srcs[0],
			Right:      srcs[1],
			LeftWidth:  len(effs[0].cols),
			RightWidth: len(effs[1].cols),
			Type:       j.Type,
			Residual:   residual,
		})
		lw.effOf[op] = effConcat
		return nil

	case correlation.KindAgg:
		agg := op.Agg
		childSchema := effs[0].schema
		groupFns := make([]exec.Evaluator, len(agg.GroupBy))
		for i, g := range agg.GroupBy {
			ev, err := exec.Compile(g, childSchema)
			if err != nil {
				return fmt.Errorf("%s group %s: %w", op.Name(), g.SQL(), err)
			}
			groupFns[i] = ev
		}
		aggFns := make([]cmf.AggFunc, len(agg.Aggs))
		kinds := make([]exec.AggKind, len(agg.Aggs))
		for i, spec := range agg.Aggs {
			kinds[i] = spec.Kind
			fn := cmf.AggFunc{Kind: spec.Kind}
			if spec.Arg != nil {
				ev, err := exec.Compile(spec.Arg, childSchema)
				if err != nil {
					return fmt.Errorf("%s aggregate %s: %w", op.Name(), spec.Name, err)
				}
				fn.Arg = ev
			}
			aggFns[i] = fn
		}
		aggOp := &cmf.AggOp{
			OpName:  op.Name(),
			In:      srcs[0],
			GroupBy: groupFns,
			Aggs:    aggFns,
		}
		// Map-side partial aggregation (Hive's hash-aggregate map phase)
		// applies to standalone aggregation jobs with decomposable
		// aggregates whose input is a mapper stream.
		if lw.combine && len(jb.ops) == 1 && !srcs[0].IsOp() && cmf.Decomposable(kinds) {
			// The combiner ships exec.Acc.AppendPartial's layout: the output
			// row, but for AVG's running (FLOAT sum, INT count).
			out := agg.Schema().Cols
			partials := append(make([]exec.Column, 0, len(out)+len(kinds)), out[:len(agg.GroupBy)]...)
			for i, c := range out[len(agg.GroupBy):] {
				if kinds[i] == exec.AggAvg {
					c.Type = exec.TypeFloat
					partials = append(partials, c)
					c.Type = exec.TypeInt
				}
				partials = append(partials, c)
			}
			aggOp.Partials = &exec.Schema{Cols: partials}
			cj.CombineOp = op.Name()
		}
		addOp(aggOp)
		if len(agg.GroupBy) == 0 {
			cj.NumReduceTasks = 1 // global aggregation runs in one reducer
		}
		lw.effOf[op] = fullView(agg.Schema())
		return nil

	case correlation.KindSort:
		s := op.Sort
		keys := make([]cmf.SortKey, len(s.Keys))
		for i, k := range s.Keys {
			ev, err := exec.Compile(k.Expr, effs[0].schema)
			if err != nil {
				return fmt.Errorf("%s key %s: %w", op.Name(), k.Expr.SQL(), err)
			}
			keys[i] = cmf.SortKey{Fn: ev, Desc: k.Desc}
		}
		limit := 0
		if op == lw.analysis.RootOp {
			limit = topLimit
		}
		addOp(&cmf.SortOp{OpName: op.Name(), In: srcs[0], Keys: keys, Limit: limit})
		if !lw.parallelSort(op) {
			// A global LIMIT forces the classic single-reducer total order;
			// otherwise range-ordered keys let every reducer participate.
			cj.NumReduceTasks = 1
		}
		lw.effOf[op] = effs[0]
		return nil

	default:
		return fmt.Errorf("unknown operation kind %v", op.Kind)
	}
}
