package exec

import (
	"math"
)

// EncodeOrderedKey encodes a list of values into a string whose
// lexicographic byte order equals the (Compare, desc-flag) order of the
// values — a memcomparable encoding, the same idea Hadoop's
// TotalOrderPartitioner relies on. Distributed ORDER BY jobs key their map
// output with it, so range partitions (and the engine's sorted key
// iteration) yield a total order without funnelling every row through one
// reducer.
//
// desc[i] inverts the i-th component's order; a nil desc means all
// ascending. Numeric components compare int/float uniformly through
// float64, so integers beyond 2^53 may collide; the workload's keys are
// far below that. Every NaN encodes as one canonical NaN, above +Inf, and
// -0.0 as 0.0, so values Compare calls equal encode identically.
func EncodeOrderedKey(vals []Value, desc []bool) string {
	var buf [encodeBuf]byte
	b := buf[:0]
	for i, v := range vals {
		start := len(b)
		b = appendOrdered(b, v)
		if i < len(desc) && desc[i] {
			for j := start; j < len(b); j++ {
				b[j] = ^b[j]
			}
		}
	}
	return string(b)
}

// Component tags follow the total order of typeRank: NULL sorts first.
const (
	ordTagNull   = 0x01
	ordTagBool   = 0x02
	ordTagNumber = 0x03
	ordTagString = 0x04
)

func appendOrdered(b []byte, v Value) []byte {
	switch v.T {
	case TypeNull:
		return append(b, ordTagNull)
	case TypeBool:
		if v.B {
			return append(b, ordTagBool, 0x01)
		}
		return append(b, ordTagBool, 0x00)
	case TypeInt, TypeFloat:
		f, _ := v.AsFloat()
		switch {
		case math.IsNaN(f):
			f = math.NaN()
		case f == 0:
			f = 0
		}
		bits := math.Float64bits(f)
		// Flip so that bigger floats get bigger unsigned bit patterns:
		// negative numbers invert entirely, non-negatives set the sign bit.
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		return append(b,
			ordTagNumber,
			byte(bits>>56), byte(bits>>48), byte(bits>>40), byte(bits>>32),
			byte(bits>>24), byte(bits>>16), byte(bits>>8), byte(bits))
	case TypeString:
		b = append(b, ordTagString)
		// Escape 0x00 as (0x00, 0xFF) and terminate with (0x00, 0x00):
		// the terminator sorts below any escaped or plain content byte, so
		// prefixes order first, as string comparison requires.
		for i := 0; i < len(v.S); i++ {
			if v.S[i] == 0x00 {
				b = append(b, 0x00, 0xFF)
			} else {
				b = append(b, v.S[i])
			}
		}
		return append(b, 0x00, 0x00)
	default:
		return append(b, ordTagNull)
	}
}
