package exec

import (
	"math/rand"
	"testing"
)

// orderedKey is AppendOrderedKey's key as a string.
func orderedKey(vals []Value, desc []bool) string {
	return string(AppendOrderedKey(nil, vals, desc))
}

// TestAppendOrderedKeyAppends: the key lands after what dst already holds,
// which it leaves alone, and is the key a nil dst gets.
func TestAppendOrderedKeyAppends(t *testing.T) {
	vals, desc := []Value{Int(7), Str("a\x00b"), Float(-2.5)}, []bool{false, true, false}
	got := AppendOrderedKey([]byte("key:"), vals, desc)
	if want := "key:" + orderedKey(vals, desc); string(got) != want {
		t.Errorf("AppendOrderedKey after a prefix = %q, want %q", got, want)
	}
}

// mixedCompare is the reference order AppendOrderedKey must realize:
// component-wise Compare with desc flags flipping individual components.
func mixedCompare(a, b []Value, desc []bool) int {
	for i := range a {
		c := Compare(a[i], b[i])
		if i < len(desc) && desc[i] {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

func strCompare(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// TestOrderedKeyMatchesCompareProperty: for random value tuples, byte order
// of the encodings equals the reference order — including DESC components
// and cross-type comparisons.
func TestOrderedKeyMatchesCompareProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(3)
		desc := make([]bool, n)
		for i := range desc {
			desc[i] = rng.Intn(2) == 0
		}
		a := make([]Value, n)
		b := make([]Value, n)
		for i := 0; i < n; i++ {
			a[i] = randomValue(rng)
			if rng.Intn(3) == 0 {
				b[i] = a[i] // force ties so later components decide
			} else {
				b[i] = randomValue(rng)
			}
		}
		want := mixedCompare(a, b, desc)
		got := strCompare(orderedKey(a, desc), orderedKey(b, desc))
		if got != want {
			t.Fatalf("trial %d: order mismatch for %v vs %v (desc %v): encoded %d, want %d",
				trial, a, b, desc, got, want)
		}
	}
}

// TestOrderedKeyNullAndBoundaryStrings pins the tricky cases explicitly.
func TestOrderedKeyNullAndBoundaryStrings(t *testing.T) {
	asc := func(vals ...Value) string { return orderedKey(vals, nil) }
	pairs := []struct {
		lo, hi Value
	}{
		{Null(), Bool(false)},
		{Bool(false), Bool(true)},
		{Bool(true), Int(-1 << 40)},
		{Int(-5), Int(-4)},
		{Int(-1), Int(0)},
		{Int(0), Float(0.5)},
		{Float(0.5), Int(1)},
		{Int(1 << 40), Str("")},
		{Str(""), Str("\x00")},
		{Str("\x00"), Str("\x00\x00")},
		{Str("\x00"), Str("\x01")},
		{Str("a"), Str("a\x00")},
		{Str("a\x00"), Str("a\x00b")},
		{Str("a\x00b"), Str("ab")},
		{Str("ab"), Str("b")},
	}
	for _, p := range pairs {
		if !(asc(p.lo) < asc(p.hi)) {
			t.Errorf("encoding order violated: %v should sort before %v", p.lo, p.hi)
		}
	}
	// Equal values encode identically.
	if asc(Int(3)) != asc(Float(3)) {
		t.Error("3 and 3.0 must encode equally (Compare treats them equal)")
	}
}

func TestOrderedKeyDescFlips(t *testing.T) {
	a := orderedKey([]Value{Int(1), Str("x")}, []bool{true, false})
	b := orderedKey([]Value{Int(2), Str("x")}, []bool{true, false})
	if !(b < a) {
		t.Error("desc on first component should flip its order")
	}
	// The second (asc) component still breaks ties normally.
	c := orderedKey([]Value{Int(1), Str("a")}, []bool{true, false})
	d := orderedKey([]Value{Int(1), Str("b")}, []bool{true, false})
	if !(c < d) {
		t.Error("asc tiebreaker must keep its order under a desc prefix")
	}
}
