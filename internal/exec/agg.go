package exec

import (
	"fmt"

	"ysmart/internal/sqlparser"
)

// AggKind enumerates the aggregate functions of the paper's SQL subset.
type AggKind int

// Aggregate kinds.
const (
	AggCountStar AggKind = iota + 1
	AggCount
	AggCountDistinct
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (k AggKind) String() string {
	switch k {
	case AggCountStar:
		return "COUNT(*)"
	case AggCount:
		return "COUNT"
	case AggCountDistinct:
		return "COUNT(DISTINCT)"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("AggKind(%d)", int(k))
	}
}

// AggKindOf maps a parsed aggregate call to its kind.
func AggKindOf(f *sqlparser.FuncCall) (AggKind, error) {
	switch f.Name {
	case "COUNT":
		switch {
		case f.Star:
			return AggCountStar, nil
		case f.Distinct:
			return AggCountDistinct, nil
		default:
			return AggCount, nil
		}
	case "SUM":
		return AggSum, nil
	case "AVG":
		return AggAvg, nil
	case "MIN":
		return AggMin, nil
	case "MAX":
		return AggMax, nil
	default:
		return 0, fmt.Errorf("not an aggregate function: %s", f.Name)
	}
}

// ResultType reports the output type of the aggregate for an input type.
func (k AggKind) ResultType(input Type) Type {
	switch k {
	case AggCountStar, AggCount, AggCountDistinct:
		return TypeInt
	case AggAvg:
		return TypeFloat
	default:
		return input
	}
}

// Accumulator accumulates values for one group of one aggregate.
type Accumulator interface {
	// Add feeds one input value. For COUNT(*) the value is ignored.
	Add(v Value)
	// Result returns the aggregate for the values added so far.
	Result() Value
}

// NewAccumulator creates an accumulator for the kind.
func NewAccumulator(k AggKind) Accumulator {
	switch k {
	case AggCountStar:
		return &countStarAcc{}
	case AggCount:
		return &countAcc{}
	case AggCountDistinct:
		return &countDistinctAcc{seen: make(map[string]struct{})}
	case AggSum:
		return &sumAcc{}
	case AggAvg:
		return &avgAcc{}
	case AggMin:
		return &minMaxAcc{min: true}
	case AggMax:
		return &minMaxAcc{}
	default:
		return nil
	}
}

type countStarAcc struct{ n int64 }

func (a *countStarAcc) Add(Value)     { a.n++ }
func (a *countStarAcc) Result() Value { return Int(a.n) }

type countAcc struct{ n int64 }

func (a *countAcc) Add(v Value) {
	if !v.IsNull() {
		a.n++
	}
}
func (a *countAcc) Result() Value { return Int(a.n) }

type countDistinctAcc struct{ seen map[string]struct{} }

func (a *countDistinctAcc) Add(v Value) {
	if v.IsNull() {
		return
	}
	// Only a value not seen before costs its key string.
	var buf [encodeBuf]byte
	field := AppendField(buf[:0], v)
	if _, ok := a.seen[string(field)]; !ok {
		a.seen[string(field)] = struct{}{}
	}
}
func (a *countDistinctAcc) Result() Value { return Int(int64(len(a.seen))) }

// sumAcc keeps integer sums integral and switches to float on the first
// float input (Hive semantics: SUM(int) is bigint, SUM(double) is double).
type sumAcc struct {
	any     bool
	isFloat bool
	i       int64
	f       float64
}

func (a *sumAcc) Add(v Value) {
	switch v.T {
	case TypeInt:
		a.any = true
		if a.isFloat {
			a.f += float64(v.I)
		} else {
			a.i += v.I
		}
	case TypeFloat:
		a.any = true
		if !a.isFloat {
			a.isFloat = true
			a.f = float64(a.i)
		}
		a.f += v.F
	}
}

func (a *sumAcc) Result() Value {
	if !a.any {
		return Null() // SUM of no rows is NULL
	}
	if a.isFloat {
		return Float(a.f)
	}
	return Int(a.i)
}

type avgAcc struct {
	n   int64
	sum float64
}

func (a *avgAcc) Add(v Value) {
	if f, ok := v.AsFloat(); ok {
		a.n++
		a.sum += f
	}
}

func (a *avgAcc) Result() Value {
	if a.n == 0 {
		return Null()
	}
	return Float(a.sum / float64(a.n))
}

type minMaxAcc struct {
	min bool
	any bool
	cur Value
}

func (a *minMaxAcc) Add(v Value) {
	if v.IsNull() {
		return
	}
	if !a.any {
		a.any = true
		a.cur = v
		return
	}
	c := Compare(v, a.cur)
	if (a.min && c < 0) || (!a.min && c > 0) {
		a.cur = v
	}
}

func (a *minMaxAcc) Result() Value {
	if !a.any {
		return Null()
	}
	return a.cur
}
