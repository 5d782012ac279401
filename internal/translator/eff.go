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

// stage is one step of a lowered transparent chain.
type stage struct {
	pred  exec.Predicate   // filter stage when non-nil
	exprs []exec.Evaluator // projection stage when non-nil
	out   effView
}

func (s stage) isFilter() bool { return s.pred != nil }

// lowerChain lowers a transparent chain (Filter/Project/Rebind nodes
// between an operation and its input, ordered top-down) into stages over
// the input view. required supplies per-node column demands so projections
// compute only what ancestors consume.
func lowerChain(in effView, chain []plan.Node, required func(plan.Node) []int) ([]stage, effView, error) {
	var stages []stage
	cur := in
	// The chain is stored top-down; rows flow bottom-up.
	for i := len(chain) - 1; i >= 0; i-- {
		switch n := chain[i].(type) {
		case *plan.Filter:
			pred, err := exec.CompilePredicate(n.Cond, cur.schema)
			if err != nil {
				return nil, effView{}, fmt.Errorf("chain filter %s: %w", n.Cond.SQL(), err)
			}
			stages = append(stages, stage{pred: pred, out: cur})
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
			out := restrictView(n.Schema(), req)
			stages = append(stages, stage{exprs: exprs, out: out})
			cur = out
		case *plan.Rebind:
			// Adopt the rebind node's own schema (restricted to the live
			// columns): it carries the bindings and visibility flags the
			// planner set, which a plain re-qualification would lose.
			cur = effView{schema: restrictView(n.Schema(), cur.cols).schema, cols: cur.cols}
			if len(stages) > 0 {
				stages[len(stages)-1].out = cur
			}
		case *plan.Limit:
			return nil, effView{}, fmt.Errorf("LIMIT is only supported directly above the final ORDER BY")
		default:
			return nil, effView{}, fmt.Errorf("unsupported chain node %T", n)
		}
	}
	return stages, cur, nil
}

// mapChain is a mapper's per-line work short of the emit: decode the
// demanded columns of a line (cols nil: all of them), then run the
// map-side stages; a nil row means the line was filtered out. It works in
// the map task's scratch row (cmf.CommonInput.Decode): the decoded row at
// the scratch's start and each projection's output right after its input,
// so need is the width of them all together.
type mapChain struct {
	schema *exec.Schema
	cols   []int
	stages []stage
	width  int // decoded row width
	need   int // scratch width: the decoded row plus every projection
}

func newMapChain(schema *exec.Schema, cols []int, stages []stage) *mapChain {
	c := &mapChain{schema: schema, cols: cols, stages: stages, width: len(cols)}
	if cols == nil {
		c.width = schema.Len()
	}
	c.need = c.width
	for _, s := range stages {
		c.need += len(s.exprs)
	}
	return c
}

// decode is a cmf.CommonInput.Decode.
func (c *mapChain) decode(scratch *exec.Row, line string) (exec.Row, error) {
	if cap(*scratch) < c.need {
		*scratch = make(exec.Row, c.need)
	}
	dst := (*scratch)[:c.need]
	row, err := exec.DecodeColsInto(dst[:c.width], line, c.schema, c.cols)
	if err != nil {
		return nil, err
	}
	off := c.width
	for _, s := range c.stages {
		if s.pred != nil {
			ok, err := s.pred(row)
			if err != nil || !ok {
				return nil, err
			}
			continue
		}
		out := dst[off : off+len(s.exprs)]
		off += len(s.exprs)
		for i, fn := range s.exprs {
			v, err := fn(row)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		row = out
	}
	return row, nil
}

// prefilterOf turns a mapper's decode-and-filter path into its raw-line
// early filter: a nil row with no error is exactly a line the mapper
// drops, and lines that fail are kept so the mapper still surfaces the
// error. Prefilters of one input run in concurrent map tasks, so each call
// decodes into storage of its own.
func prefilterOf(decode func(scratch *exec.Row, line string) (exec.Row, error)) func(line string) bool {
	return func(line string) bool {
		var scratch exec.Row
		out, err := decode(&scratch, line)
		return err != nil || out != nil
	}
}

// stagesToOps turns stages into reduce-side cmf operators chained after
// src, returning the final source.
func stagesToOps(stages []stage, src cmf.Source, namePrefix string, add func(cmf.Op)) cmf.Source {
	for i, s := range stages {
		name := fmt.Sprintf("%s.c%d", namePrefix, i)
		if s.isFilter() {
			add(&cmf.FilterOp{OpName: name, In: src, Pred: s.pred})
		} else {
			add(&cmf.ProjectOp{OpName: name, In: src, Exprs: s.exprs})
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
