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

// appendPartialRow appends one partial row for a group to dst: the group
// values followed by each aggregate's partial fields (exec.Acc's
// AppendPartial), fed from the raw rows.
func appendPartialRow(dst, groupVals exec.Row, aggs []AggFunc, rows []exec.Row) (exec.Row, error) {
	dst = append(dst, groupVals...)
	for _, spec := range aggs {
		if spec.Kind == exec.AggCountDistinct {
			return nil, fmt.Errorf("aggregate %v is not decomposable", spec.Kind)
		}
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
