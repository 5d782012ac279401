package exec

import (
	"fmt"
	"strconv"

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

// Acc accumulates one aggregate over one group. It is a value — the kind
// and its running state — not an interface over heap objects, so the
// accumulators of a group are one slice that a reducer can reuse from key
// group to key group; only COUNT(DISTINCT) allocates: its set on the first
// non-NULL input, and then the growth of the set — a new value costs no
// string of its own while every value so far is an INT.
type Acc struct {
	kind AggKind
	n    int64 // COUNT(*), COUNT and AVG: the inputs counted
	// v is SUM's running total and MIN's or MAX's extremum — its zero T
	// means no input yet — and, in F, AVG's running sum.
	v Value
	// COUNT(DISTINCT) counts distinct encodings. While every value is an
	// INT, whose encoding is its decimal text, ints holds them as numbers;
	// the first other value moves them into seen as text, which holds the
	// encoded values from then on.
	ints map[int64]struct{}
	seen map[string]struct{}
}

// NewAcc returns an empty accumulator for the kind.
func NewAcc(k AggKind) Acc { return Acc{kind: k} }

// Add feeds one input value; COUNT(*) counts every call whatever the value.
// SUM keeps integer sums integral and switches to float on the first float
// input (Hive semantics: SUM(int) is bigint, SUM(double) is double).
func (a *Acc) Add(v Value) {
	switch a.kind {
	case AggCountStar:
		a.n++
	case AggCount:
		if !v.IsNull() {
			a.n++
		}
	case AggCountDistinct:
		if v.IsNull() {
			return
		}
		if v.T == TypeInt && a.seen == nil {
			if a.ints == nil {
				a.ints = make(map[int64]struct{})
			}
			a.ints[v.I] = struct{}{}
			return
		}
		if a.seen == nil {
			a.seen = make(map[string]struct{}, len(a.ints)+1)
			for i := range a.ints {
				a.seen[strconv.FormatInt(i, 10)] = struct{}{}
			}
			a.ints = nil
		}
		// Only a value not seen before costs its key string.
		var buf [encodeBuf]byte
		field := AppendKeyField(buf[:0], v)
		if _, ok := a.seen[string(field)]; !ok {
			a.seen[string(field)] = struct{}{}
		}
	case AggSum:
		switch {
		case v.T == TypeInt && a.v.T == TypeFloat:
			a.v.F += float64(v.I)
		case v.T == TypeInt:
			a.v = Int(a.v.I + v.I)
		case v.T == TypeFloat && a.v.T == TypeFloat:
			a.v.F += v.F
		case v.T == TypeFloat:
			// The integral total so far (0 before any input) becomes the
			// float one, so a lone -0.0 sums to +0.0.
			a.v = Float(float64(a.v.I) + v.F)
		}
	case AggAvg:
		if f, ok := v.AsFloat(); ok {
			a.n++
			a.v.F += f
		}
	case AggMin, AggMax:
		if v.IsNull() {
			return
		}
		if a.v.T == 0 {
			a.v = v
			return
		}
		c := Compare(v, a.v)
		if (a.kind == AggMin && c < 0) || (a.kind == AggMax && c > 0) {
			a.v = v
		}
	}
}

// Result returns the aggregate of the values added so far. SUM, AVG, MIN
// and MAX of no values are NULL; the COUNT kinds are 0.
func (a *Acc) Result() Value {
	switch a.kind {
	case AggCountStar, AggCount:
		return Int(a.n)
	case AggCountDistinct:
		return Int(int64(len(a.ints) + len(a.seen)))
	case AggAvg:
		if a.n == 0 {
			return Null()
		}
		return Float(a.v.F / float64(a.n))
	}
	if a.v.T == 0 {
		return Null()
	}
	return a.v
}

// PartialWidth is the number of row fields the kind's partial state
// occupies (see AppendPartial).
func (k AggKind) PartialWidth() int {
	if k == AggAvg {
		return 2 // sum, count
	}
	return 1
}

// AppendPartial appends the accumulator's partial state to dst — what a
// map-side combiner ships for it: the count for the COUNT kinds, the
// result so far for SUM, MIN and MAX, and the sum then the count for AVG.
// COUNT(DISTINCT) has no bounded partial state and is never combined.
func (a *Acc) AppendPartial(dst Row) Row {
	if a.kind == AggAvg {
		return append(dst, Float(a.v.F), Int(a.n))
	}
	return append(dst, a.Result())
}

// MergePartial folds in the PartialWidth fields of one partial state that
// AppendPartial wrote for an accumulator of the same kind.
func (a *Acc) MergePartial(f Row) error {
	switch a.kind {
	case AggCountStar, AggCount:
		if f[0].T != TypeInt {
			return fmt.Errorf("count partial is %v, want int", f[0].T)
		}
		a.n += f[0].I
	case AggAvg:
		if f[1].T != TypeInt {
			return fmt.Errorf("avg partial count is %v, want int", f[1].T)
		}
		if sum, ok := f[0].AsFloat(); ok {
			a.v.F += sum
		} else if !f[0].IsNull() {
			return fmt.Errorf("avg partial sum is %v, want numeric", f[0].T)
		}
		a.n += f[1].I
	default:
		a.Add(f[0])
	}
	return nil
}
