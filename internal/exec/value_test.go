package exec

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestValueSize pins the field order of Value: T and B share the first
// word. Declared apart they each pad to a word and every row slab, slot
// table and arena chunk in the reduce path grows by a fifth.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 40 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 40", got)
	}
}

func TestValueConstructorsAndString(t *testing.T) {
	tests := []struct {
		v    Value
		t    Type
		want string
	}{
		{Null(), TypeNull, "NULL"},
		{Int(42), TypeInt, "42"},
		{Int(-7), TypeInt, "-7"},
		{Float(2.5), TypeFloat, "2.5"},
		{Str("hi"), TypeString, "hi"},
		{Bool(true), TypeBool, "true"},
		{Bool(false), TypeBool, "false"},
	}
	for _, tt := range tests {
		if tt.v.T != tt.t {
			t.Errorf("%v type = %v, want %v", tt.v, tt.v.T, tt.t)
		}
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	tests := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Int(1), Float(1.5), -1},
		{Float(1.5), Int(1), 1},
		{Float(2.0), Int(2), 0},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
		{Null(), Int(0), -1},        // NULL sorts first
		{Null(), Str(""), -1},       // before every type
		{Null(), Null(), 0},         // NULL == NULL for sorting
		{Bool(true), Int(-100), -1}, // type rank: bool < numeric
		{Int(5), Str("0"), -1},      // numeric < string
		// NaN equals NaN and sorts above every other number; -0.0 = 0.0.
		{Float(math.NaN()), Float(math.NaN()), 0},
		{Float(math.NaN()), Float(math.Inf(1)), 1},
		{Int(math.MaxInt64), Float(math.NaN()), -1},
		{Float(math.NaN()), Null(), 1},
		{Float(math.NaN()), Str(""), -1},
		{Float(math.Copysign(0, -1)), Float(0), 0},
		{Float(math.Copysign(0, -1)), Int(0), 0},
	}
	for _, tt := range tests {
		if got := Compare(tt.a, tt.b); got != tt.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

// randomValue generates an arbitrary value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Null()
	case 1:
		return Int(r.Int63n(2000) - 1000)
	case 2:
		return Float(float64(r.Int63n(2000)-1000) / 8)
	case 3:
		letters := []byte("abc\tx\\yz\nNULL\\N")
		n := r.Intn(8)
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[r.Intn(len(letters))]
		}
		return Str(string(b))
	default:
		return Bool(r.Intn(2) == 0)
	}
}

// valueGen adapts randomValue to testing/quick.
type valueGen struct{ V Value }

// Generate implements quick.Generator.
func (valueGen) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(valueGen{V: randomValue(r)})
}

func TestCompareIsAntisymmetric(t *testing.T) {
	f := func(a, b valueGen) bool {
		return Compare(a.V, b.V) == -Compare(b.V, a.V)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCompareIsTransitive(t *testing.T) {
	f := func(a, b, c valueGen) bool {
		x, y, z := a.V, b.V, c.V
		// If x <= y and y <= z then x <= z.
		if Compare(x, y) <= 0 && Compare(y, z) <= 0 {
			return Compare(x, z) <= 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestCompareReflexive(t *testing.T) {
	f := func(a valueGen) bool { return Compare(a.V, a.V) == 0 }
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestRowCloneIndependent(t *testing.T) {
	r := Row{Int(1), Str("x")}
	c := r.Clone()
	c[0] = Int(99)
	if r[0].I != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestConcatAndNullRow(t *testing.T) {
	r := Concat(Row{Int(1)}, Row{Str("a"), Bool(true)})
	if len(r) != 3 || r[2].T != TypeBool {
		t.Errorf("Concat = %v", r)
	}
	n := NullRow(3)
	for i, v := range n {
		if !v.IsNull() {
			t.Errorf("NullRow[%d] = %v, want NULL", i, v)
		}
	}
}

func TestEqualTreatsNullEqual(t *testing.T) {
	if !Equal(Null(), Null()) {
		t.Error("Equal(NULL, NULL) should be true for grouping semantics")
	}
	if Equal(Int(1), Int(2)) {
		t.Error("Equal(1, 2) should be false")
	}
	if !Equal(Int(2), Float(2.0)) {
		t.Error("Equal(2, 2.0) should be true")
	}
}
