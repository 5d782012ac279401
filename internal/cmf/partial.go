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

// appendPartialRow appends one partial row for a key group of a combined
// job to dst: the group values followed by each aggregate's partial fields
// (exec.Acc's AppendPartial), fed from the raw rows. A combined job keys on
// its full grouping expressions, so every row of the key group yields the
// same group values, and agg's GroupBy over the first row computes them.
func appendPartialRow(dst exec.Row, agg *AggOp, rows []exec.Row) (exec.Row, error) {
	for _, fn := range agg.GroupBy {
		v, err := fn(rows[0])
		if err != nil {
			return nil, fmt.Errorf("agg %s group: %w", agg.OpName, err)
		}
		dst = append(dst, v)
	}
	for _, spec := range agg.Aggs {
		acc := exec.NewAcc(spec.Kind)
		for _, r := range rows {
			if spec.Arg == nil {
				acc.Add(exec.Int(1))
				continue
			}
			v, err := spec.Arg(r)
			if err != nil {
				return nil, err
			}
			acc.Add(v)
		}
		dst = acc.AppendPartial(dst)
	}
	return dst, nil
}
