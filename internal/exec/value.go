// Package exec provides the runtime data model shared by every executor in
// the repository: typed values, rows, schemas, a Hive-style tab-delimited
// row codec, a compiler from sqlparser expressions to evaluators, and
// aggregate accumulators. Both the MapReduce reducers and the single-node
// DBMS executor are built on this package.
package exec

import (
	"fmt"
	"math"
	"strconv"
)

// Type identifies the runtime type of a Value.
type Type uint8

// Runtime types.
const (
	TypeNull Type = iota + 1
	TypeInt
	TypeFloat
	TypeString
	TypeBool
)

func (t Type) String() string {
	switch t {
	case TypeNull:
		return "null"
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeString:
		return "string"
	case TypeBool:
		return "bool"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Value is a dynamically typed SQL value. The zero Value is NOT valid; use
// the constructors. NULL is represented by TypeNull. The two one-byte fields
// are declared together so they share a word: 40 bytes, not 48.
type Value struct {
	T Type
	B bool
	I int64
	F float64
	S string
}

// Null returns the SQL NULL value.
func Null() Value { return Value{T: TypeNull} }

// Int returns an integer value.
func Int(i int64) Value { return Value{T: TypeInt, I: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{T: TypeFloat, F: f} }

// Str returns a string value.
func Str(s string) Value { return Value{T: TypeString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{T: TypeBool, B: b} }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.T == TypeNull }

// IsNumeric reports whether v is an int or float.
func (v Value) IsNumeric() bool { return v.T == TypeInt || v.T == TypeFloat }

// AsFloat converts a numeric value to float64. ok is false for
// non-numeric values.
func (v Value) AsFloat() (f float64, ok bool) {
	switch v.T {
	case TypeInt:
		return float64(v.I), true
	case TypeFloat:
		return v.F, true
	default:
		return 0, false
	}
}

// String renders the value for display (not for the row codec).
func (v Value) String() string {
	switch v.T {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TypeString:
		return v.S
	case TypeBool:
		if v.B {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// typeRank orders types for the cross-type branch of Compare. It exists only
// to make sorting total; well-typed queries never compare across ranks.
func typeRank(t Type) int {
	switch t {
	case TypeNull:
		return 0
	case TypeBool:
		return 1
	case TypeInt, TypeFloat:
		return 2
	case TypeString:
		return 3
	default:
		return 4
	}
}

// Compare imposes a total order for sorting and grouping: NULL sorts before
// everything; ints and floats compare numerically with each other, -0.0
// equal to 0.0 and, as in PostgreSQL, NaN equal to NaN and above every
// other number; bools order false < true; strings order lexicographically.
// Values of different non-numeric types order by an arbitrary fixed type
// rank. The comparison operators are Compare's order too, so NaN = NaN and
// NaN > 1 are TRUE.
func Compare(a, b Value) int {
	ra, rb := typeRank(a.T), typeRank(b.T)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch a.T {
	case TypeNull:
		return 0
	case TypeBool:
		switch {
		case a.B == b.B:
			return 0
		case !a.B:
			return -1
		default:
			return 1
		}
	case TypeInt:
		if b.T == TypeInt {
			switch {
			case a.I < b.I:
				return -1
			case a.I > b.I:
				return 1
			default:
				return 0
			}
		}
		return compareFloat(float64(a.I), b.F)
	case TypeFloat:
		bf, _ := b.AsFloat()
		return compareFloat(a.F, bf)
	case TypeString:
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	// At least one side is NaN, which equals itself and sorts above all.
	if math.IsNaN(a) {
		if math.IsNaN(b) {
			return 0
		}
		return 1
	}
	return -1
}

// Equal reports SQL equality treating NULL = NULL as true. Use Compare==0
// semantics; for three-valued logic use the expression evaluator instead.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Row is an ordered tuple of values positioned by a Schema.
type Row []Value

// Clone returns a copy of the row sharing no slice storage.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Concat returns a new row that is r followed by s.
func Concat(r, s Row) Row {
	out := make(Row, 0, len(r)+len(s))
	out = append(out, r...)
	out = append(out, s...)
	return out
}

// NullRow returns a row of n NULLs (used for outer-join padding).
func NullRow(n int) Row {
	out := make(Row, n)
	for i := range out {
		out[i] = Null()
	}
	return out
}
