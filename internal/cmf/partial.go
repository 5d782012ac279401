package cmf

import (
	"fmt"

	"ysmart/internal/exec"
)

// Map-side partial aggregation (Hadoop combiners / Hive's hash-aggregate
// map phase). An aggregate is decomposable when a bounded partial state can
// be merged associatively: COUNT and SUM keep a running total, MIN/MAX keep
// the extremum, AVG keeps (sum, count). COUNT(DISTINCT) is not decomposable
// into bounded state, so jobs containing it run without a combiner.

// Decomposable reports whether every aggregate kind supports partial
// aggregation.
func Decomposable(kinds []exec.AggKind) bool {
	for _, k := range kinds {
		if k == exec.AggCountDistinct {
			return false
		}
	}
	return true
}

// appendPartialRow folds one key group of a combined job into a partial
// row appended to dst: the group values followed by each aggregate's
// partial fields (exec.Acc's AppendPartial). row(i) returns the group's
// i-th raw row, i < n, valid only until the next call: the fold feeds each
// row to every accumulator before it asks for the next, so an accumulator
// sees the rows in order and a combiner decodes them one at a time into
// the same scratch row. A combined job keys on its full grouping
// expressions, so every row of the key group yields the same group values
// (up to the sign of a zero, which keys ignore), and agg's GroupBy over the
// first row computes them. accs is scratch, reset in place (appendAccs) and
// handed back grown whether or not the fold fails. The first row that
// fails, in value order, fails the fold, whether its decode or one of its
// arguments fails.
func appendPartialRow(dst exec.Row, agg *AggOp, accs []exec.Acc, n int, row func(int) (exec.Row, error)) (exec.Row, []exec.Acc, error) {
	accs = appendAccs(accs[:0], agg.Aggs)
	for i := 0; i < n; i++ {
		r, err := row(i)
		if err != nil {
			return nil, accs, err
		}
		if i == 0 {
			for _, fn := range agg.GroupBy {
				v, err := fn(r)
				if err != nil {
					return nil, accs, fmt.Errorf("agg %s group: %w", agg.OpName, err)
				}
				dst = append(dst, v)
			}
		}
		for k, spec := range agg.Aggs {
			if spec.Arg == nil {
				accs[k].Add(exec.Int(1))
				continue
			}
			v, err := spec.Arg(r)
			if err != nil {
				return nil, accs, err
			}
			accs[k].Add(v)
		}
	}
	for k := range accs {
		dst = accs[k].AppendPartial(dst)
	}
	return dst, accs, nil
}
