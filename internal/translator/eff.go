// Package translator generates MapReduce job plans from logical query
// plans. It implements both translation modes the paper compares:
//
//   - one-operation-to-one-job (the Hive/Pig baseline of §I and §III), and
//   - YSmart's correlation-aware merging (§V): Rule 1 merges jobs with
//     input+transit correlation into a common job sharing one table scan;
//     Rules 2–4 merge operations with job-flow correlation into the reduce
//     phase of their child's job as post-job computations.
//
// Merged jobs execute on the Common MapReduce Framework (internal/cmf);
// the engine (internal/mapreduce) runs the generated chains.
package translator

import (
	"fmt"

	"ysmart/internal/cmf"
	"ysmart/internal/exec"
	"ysmart/internal/plan"
)

// effView describes the shape of rows flowing through the lowered dataflow:
// a (possibly column-pruned) view of a plan node's schema. cols maps each
// view column to its index in the full plan schema.
type effView struct {
	schema *exec.Schema
	cols   []int
}

// fullView returns the identity view of a schema.
func fullView(s *exec.Schema) effView {
	cols := make([]int, s.Len())
	for i := range cols {
		cols[i] = i
	}
	return effView{schema: s, cols: cols}
}

// restrictView returns the view of schema s keeping only cols (ascending
// full-schema indices).
func restrictView(s *exec.Schema, cols []int) effView {
	out := &exec.Schema{Cols: make([]exec.Column, len(cols))}
	for i, c := range cols {
		out.Cols[i] = s.Cols[c]
	}
	cp := make([]int, len(cols))
	copy(cp, cols)
	return effView{schema: out, cols: cp}
}

// index translates a full-schema column index into the view, or fails if
// the column was pruned away.
func (v effView) index(full int) (int, error) {
	for i, c := range v.cols {
		if c == full {
			return i, nil
		}
	}
	return 0, fmt.Errorf("column %d pruned from view %s", full, v.schema)
}

// concat joins two views the way a join concatenates rows.
func (v effView) concat(o effView, leftFullWidth int) effView {
	s := v.schema.Concat(o.schema)
	cols := make([]int, 0, len(v.cols)+len(o.cols))
	cols = append(cols, v.cols...)
	for _, c := range o.cols {
		cols = append(cols, c+leftFullWidth)
	}
	return effView{schema: s, cols: cols}
}

// lowerChain lowers a transparent chain (Filter/Project/Rebind nodes
// between an operation and its input, ordered top-down) into stages over
// the input view. required supplies per-node column demands so projections
// compute only what ancestors consume.
func lowerChain(in effView, chain []plan.Node, required func(plan.Node) []int) ([]cmf.Stage, effView, error) {
	var stages []cmf.Stage
	cur := in
	// The chain is stored top-down; rows flow bottom-up.
	for i := len(chain) - 1; i >= 0; i-- {
		switch n := chain[i].(type) {
		case *plan.Filter:
			pred, err := exec.CompilePredicate(n.Cond, cur.schema)
			if err != nil {
				return nil, effView{}, fmt.Errorf("chain filter %s: %w", n.Cond.SQL(), err)
			}
			stages = append(stages, cmf.Stage{Pred: pred})
		case *plan.Project:
			req := required(n)
			if req == nil {
				return nil, effView{}, fmt.Errorf("chain project %s has no required-columns entry", n.Describe())
			}
			exprs := make([]exec.Evaluator, len(req))
			for ei, colIdx := range req {
				ev, err := exec.Compile(n.Exprs[colIdx], cur.schema)
				if err != nil {
					return nil, effView{}, fmt.Errorf("chain project %s: %w", n.Exprs[colIdx].SQL(), err)
				}
				exprs[ei] = ev
			}
			stages = append(stages, cmf.Stage{Exprs: exprs})
			cur = restrictView(n.Schema(), req)
		case *plan.Rebind:
			// Adopt the rebind node's own schema (restricted to the live
			// columns): it carries the bindings and visibility flags the
			// planner set, which a plain re-qualification would lose.
			cur = effView{schema: restrictView(n.Schema(), cur.cols).schema, cols: cur.cols}
		default:
			return nil, effView{}, fmt.Errorf("unsupported chain node %T", n)
		}
	}
	return stages, cur, nil
}

// stagesToOps turns stages into reduce-side cmf operators chained after
// src, returning the final source.
func stagesToOps(stages []cmf.Stage, src cmf.Source, namePrefix string, add func(cmf.Op)) cmf.Source {
	for i, s := range stages {
		name := fmt.Sprintf("%s.c%d", namePrefix, i)
		if s.Pred != nil {
			add(&cmf.FilterOp{OpName: name, In: src, Pred: s.Pred})
		} else {
			add(&cmf.ProjectOp{OpName: name, In: src, Exprs: s.Exprs})
		}
		src = cmf.OpSource(name)
	}
	return src
}

// projectionFns builds index-getter row functions for a projection.
func projectionFns(indices []int) []exec.Evaluator {
	fns := make([]exec.Evaluator, len(indices))
	for i, idx := range indices {
		idx := idx
		fns[i] = func(r exec.Row) (exec.Value, error) {
			if idx >= len(r) {
				return exec.Value{}, fmt.Errorf("projection index %d out of range (row width %d)", idx, len(r))
			}
			return r[idx], nil
		}
	}
	return fns
}
