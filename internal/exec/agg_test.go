package exec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ysmart/internal/sqlparser"
)

func TestAggKindOf(t *testing.T) {
	tests := []struct {
		sql  string
		want AggKind
	}{
		{"count(*)", AggCountStar},
		{"count(x)", AggCount},
		{"count(distinct x)", AggCountDistinct},
		{"sum(x)", AggSum},
		{"avg(x)", AggAvg},
		{"min(x)", AggMin},
		{"max(x)", AggMax},
	}
	for _, tt := range tests {
		stmt, err := sqlparser.Parse("SELECT " + tt.sql + " FROM t")
		if err != nil {
			t.Fatal(err)
		}
		f := stmt.Select[0].Expr.(*sqlparser.FuncCall)
		got, err := AggKindOf(f)
		if err != nil {
			t.Fatalf("AggKindOf(%s): %v", tt.sql, err)
		}
		if got != tt.want {
			t.Errorf("AggKindOf(%s) = %v, want %v", tt.sql, got, tt.want)
		}
	}
	if _, err := AggKindOf(&sqlparser.FuncCall{Name: "UPPER"}); err == nil {
		t.Error("AggKindOf(UPPER) should error")
	}
}

func feed(k AggKind, vals ...Value) Value {
	acc := NewAcc(k)
	for _, v := range vals {
		acc.Add(v)
	}
	return acc.Result()
}

func TestAccumulators(t *testing.T) {
	tests := []struct {
		name string
		kind AggKind
		in   []Value
		want Value
	}{
		{"count star counts everything", AggCountStar, []Value{Int(1), Null(), Str("x")}, Int(3)},
		{"count skips nulls", AggCount, []Value{Int(1), Null(), Int(2)}, Int(2)},
		{"count empty", AggCount, nil, Int(0)},
		{"count distinct", AggCountDistinct, []Value{Int(1), Int(2), Int(1), Null(), Int(2)}, Int(2)},
		{"count distinct strings", AggCountDistinct, []Value{Str("a"), Str("a"), Str("b")}, Int(2)},
		{"count distinct int then its text", AggCountDistinct, []Value{Int(1), Str("1")}, Int(1)},
		{"count distinct text then its int", AggCountDistinct, []Value{Str("1"), Int(1)}, Int(1)},
		{"count distinct ints then others", AggCountDistinct,
			[]Value{Int(1), Int(2), Int(2), Float(1), Str("2"), Null(), Bool(true), Int(3)}, Int(5)},
		{"sum ints", AggSum, []Value{Int(1), Int(2), Int(3)}, Int(6)},
		{"sum with null", AggSum, []Value{Int(1), Null(), Int(2)}, Int(3)},
		{"sum promotes to float", AggSum, []Value{Int(1), Float(0.5)}, Float(1.5)},
		{"sum floats then int", AggSum, []Value{Float(0.5), Int(1)}, Float(1.5)},
		{"sum empty is null", AggSum, nil, Null()},
		{"sum only nulls is null", AggSum, []Value{Null(), Null()}, Null()},
		{"avg", AggAvg, []Value{Int(1), Int(2), Int(3)}, Float(2)},
		{"avg skips null", AggAvg, []Value{Int(2), Null(), Int(4)}, Float(3)},
		{"avg empty is null", AggAvg, nil, Null()},
		{"min ints", AggMin, []Value{Int(3), Int(1), Int(2)}, Int(1)},
		{"min skips null", AggMin, []Value{Null(), Int(5)}, Int(5)},
		{"min strings", AggMin, []Value{Str("b"), Str("a")}, Str("a")},
		{"min empty is null", AggMin, nil, Null()},
		{"max", AggMax, []Value{Int(3), Int(9), Int(2)}, Int(9)},
		{"max mixed numeric", AggMax, []Value{Int(3), Float(3.5)}, Float(3.5)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := feed(tt.kind, tt.in...); !got.Identical(tt.want) {
				t.Errorf("got %v, want %v", got, tt.want)
			}
		})
	}
}

func TestAggResultType(t *testing.T) {
	tests := []struct {
		kind  AggKind
		input Type
		want  Type
	}{
		{AggCountStar, TypeString, TypeInt},
		{AggCount, TypeFloat, TypeInt},
		{AggCountDistinct, TypeInt, TypeInt},
		{AggAvg, TypeInt, TypeFloat},
		{AggSum, TypeInt, TypeInt},
		{AggSum, TypeFloat, TypeFloat},
		{AggSum, TypeNull, TypeNull},
		{AggAvg, TypeNull, TypeFloat},
		{AggMin, TypeString, TypeString},
		{AggMax, TypeFloat, TypeFloat},
	}
	for _, tt := range tests {
		if got, err := tt.kind.ResultType(tt.input); err != nil || got != tt.want {
			t.Errorf("%v.ResultType(%v) = %v, %v; want %v", tt.kind, tt.input, got, err, tt.want)
		}
	}
	// SUM and AVG want a number or NULL.
	for _, tt := range []struct {
		kind  AggKind
		input Type
	}{{AggSum, TypeString}, {AggAvg, TypeString}, {AggSum, TypeBool}, {AggAvg, TypeBool}} {
		if got, err := tt.kind.ResultType(tt.input); err == nil {
			t.Errorf("%v.ResultType(%v) = %v, want an error", tt.kind, tt.input, got)
		}
	}
}

// Property: SUM/COUNT/AVG agree with a direct computation over random
// int slices with NULLs sprinkled in.
func TestAggProperty(t *testing.T) {
	f := func(xs []int16, nullMask []bool) bool {
		sum := NewAcc(AggSum)
		count := NewAcc(AggCount)
		avg := NewAcc(AggAvg)
		var wantSum int64
		var wantN int64
		for i, x := range xs {
			v := Int(int64(x))
			if i < len(nullMask) && nullMask[i] {
				v = Null()
			} else {
				wantSum += int64(x)
				wantN++
			}
			sum.Add(v)
			count.Add(v)
			avg.Add(v)
		}
		if count.Result().I != wantN {
			return false
		}
		if wantN == 0 {
			return sum.Result().IsNull() && avg.Result().IsNull()
		}
		if sum.Result().I != wantSum {
			return false
		}
		return avg.Result().F == float64(wantSum)/float64(wantN)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: MIN <= every input <= MAX, and both are members of the input.
func TestMinMaxProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(20)
		minAcc := NewAcc(AggMin)
		maxAcc := NewAcc(AggMax)
		vals := make([]Value, n)
		for i := range vals {
			vals[i] = Int(r.Int63n(1000))
			minAcc.Add(vals[i])
			maxAcc.Add(vals[i])
		}
		lo, hi := minAcc.Result(), maxAcc.Result()
		foundLo, foundHi := false, false
		for _, v := range vals {
			if Compare(v, lo) < 0 || Compare(v, hi) > 0 {
				t.Fatalf("min/max violated: %v not in [%v, %v]", v, lo, hi)
			}
			if Compare(v, lo) == 0 {
				foundLo = true
			}
			if Compare(v, hi) == 0 {
				foundHi = true
			}
		}
		if !foundLo || !foundHi {
			t.Fatal("min or max is not an input member")
		}
	}
}

// Property: COUNT DISTINCT equals the size of a reference set.
func TestCountDistinctProperty(t *testing.T) {
	f := func(xs []uint8) bool {
		acc := NewAcc(AggCountDistinct)
		ref := make(map[uint8]struct{})
		for _, x := range xs {
			acc.Add(Int(int64(x)))
			ref[x] = struct{}{}
		}
		return acc.Result().I == int64(len(ref))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestCountDistinctCountsEncodings: whatever the mix and order of INT and
// other values, COUNT(DISTINCT) counts distinct encodings — the set keyed
// by int64 while only INTs came moves to text without changing the count.
func TestCountDistinctCountsEncodings(t *testing.T) {
	vals := []Value{Int(0), Int(1), Int(-1), Int(10), Str("1"), Str("10"), Str(""), Float(1), Float(0), Bool(false), Null()}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		acc := NewAcc(AggCountDistinct)
		ref := make(map[string]struct{})
		for n := rng.Intn(12); n > 0; n-- {
			v := vals[rng.Intn(len(vals))]
			if rng.Intn(2) == 0 {
				v = vals[rng.Intn(4)] // runs of INTs before anything else
			}
			acc.Add(v)
			if !v.IsNull() {
				ref[string(AppendField(nil, v))] = struct{}{}
			}
			if got := acc.Result(); !got.Identical(Int(int64(len(ref)))) {
				t.Fatalf("trial %d: count %v, want %d distinct encodings %q", trial, got, len(ref), ref)
			}
		}
	}
}

// TestAccSumOfNegativeZero: a float SUM starts from the integral total
// zero, so a lone -0.0 sums to +0.0, as the heap accumulators it replaced
// computed it.
func TestAccSumOfNegativeZero(t *testing.T) {
	got := feed(AggSum, Float(math.Copysign(0, -1)))
	if got.T != TypeFloat || math.Signbit(got.F) {
		t.Errorf("SUM(-0.0) = %v (signbit %v), want +0.0", got, math.Signbit(got.F))
	}
}

// TestAccPartialRoundTrip: cutting the inputs anywhere, shipping each
// piece's partial state and merging the pieces gives the result of one
// accumulator fed everything — the combiner's correctness condition.
func TestAccPartialRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	kinds := []AggKind{AggCountStar, AggCount, AggSum, AggAvg, AggMin, AggMax}
	for trial := 0; trial < 300; trial++ {
		vals := make([]Value, rng.Intn(12))
		for i := range vals {
			switch rng.Intn(4) {
			case 0:
				vals[i] = Null()
			case 1:
				vals[i] = Float(float64(rng.Intn(9)) / 4)
			default:
				vals[i] = Int(int64(rng.Intn(19) - 9))
			}
		}
		cut := 0
		if len(vals) > 0 {
			cut = rng.Intn(len(vals) + 1)
		}
		for _, k := range kinds {
			whole := NewAcc(k)
			merged := NewAcc(k)
			for _, piece := range [][]Value{vals[:cut], vals[cut:]} {
				acc := NewAcc(k)
				for _, v := range piece {
					whole.Add(v)
					acc.Add(v)
				}
				fields := acc.AppendPartial(nil)
				if len(fields) != k.PartialWidth() {
					t.Fatalf("%v partial has %d fields, PartialWidth %d", k, len(fields), k.PartialWidth())
				}
				if err := merged.MergePartial(fields); err != nil {
					t.Fatalf("%v: %v", k, err)
				}
			}
			want, got := whole.Result(), merged.Result()
			if k == AggAvg && !want.IsNull() && math.Abs(got.F-want.F) < 1e-12 {
				continue // the sums add in another order
			}
			if !got.Identical(want) {
				t.Fatalf("%v over %v cut at %d: merged %v, whole %v", k, vals, cut, got, want)
			}
		}
	}
}

// identicalValue reports whether two values are identical, NaN payloads and
// the sign of zero included.
func identicalValue(a, b Value) bool {
	return a.T == b.T && a.B == b.B && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// TestAccResetMatchesFreshAcc is Reset's proof: one accumulator per kind,
// reset before every group, gives every group the result and the
// COUNT(DISTINCT) mode (INT or text) of a fresh accumulator. The groups
// mix INT, STRING, NULL, NaN and ±0 values or hold INTs only, and hold
// fewer distinct values than a reset keeps or more, so kept and dropped
// sets both meet groups that are INT-only and groups that go to text.
func TestAccResetMatchesFreshAcc(t *testing.T) {
	mixed := []Value{Int(0), Int(1), Int(-1), Str("1"), Str(""), Str("NaN"), Null(),
		Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000001)),
		Float(0), Float(math.Copysign(0, -1)), Float(1), Bool(true)}
	kinds := []AggKind{AggCountStar, AggCount, AggCountDistinct, AggSum, AggAvg, AggMin, AggMax}
	rng := rand.New(rand.NewSource(11))
	reused := make([]Acc, len(kinds))
	text, intAfterText, large := false, 0, 0
	for g := 0; g < 600; g++ {
		n := rng.Intn(maxKeptDistinct)
		if rng.Intn(4) == 0 {
			n = maxKeptDistinct + 1 + rng.Intn(2*maxKeptDistinct)
			large++
		}
		intsOnly := rng.Intn(2) == 0
		group := make([]Value, n)
		for i := range group {
			if intsOnly || rng.Intn(3) == 0 {
				group[i] = Int(int64(rng.Intn(4 * maxKeptDistinct)))
			} else {
				group[i] = mixed[rng.Intn(len(mixed))]
			}
		}
		for k, kind := range kinds {
			acc := &reused[k]
			acc.Reset(kind)
			fresh := NewAcc(kind)
			for _, v := range group {
				acc.Add(v)
				fresh.Add(v)
			}
			if got, want := acc.Result(), fresh.Result(); !identicalValue(got, want) {
				t.Fatalf("group %d, %v over %v: reset accumulator %v, fresh %v", g, kind, group, got, want)
			}
			if got, want := len(acc.seen) > 0, len(fresh.seen) > 0; got != want {
				t.Fatalf("group %d, %v over %v: reset accumulator in text mode %v, fresh %v", g, kind, group, got, want)
			}
		}
		if intsOnly && text {
			intAfterText++
		}
		text = len(reused[2].seen) > 0
	}
	if intAfterText == 0 || large == 0 {
		t.Fatalf("%d INT groups after a text-mode group, %d groups past the bound: not the mix this test is about", intAfterText, large)
	}
}

// TestAllocBudgetAcc: feeding a value accumulator allocates nothing;
// COUNT(DISTINCT) pays for its set once and for a new value's key only.
func TestAllocBudgetAcc(t *testing.T) {
	for _, k := range []AggKind{AggCountStar, AggCount, AggSum, AggAvg, AggMin, AggMax} {
		acc := NewAcc(k)
		if got := testing.AllocsPerRun(100, func() { acc.Add(Int(3)); acc.Add(Float(1.5)) }); got != 0 {
			t.Errorf("%v: %v allocations per Add pair, budget 0", k, got)
		}
	}
	distinct := NewAcc(AggCountDistinct)
	distinct.Add(Int(3))
	if got := testing.AllocsPerRun(100, func() { distinct.Add(Int(3)) }); got != 0 {
		t.Errorf("COUNT(DISTINCT) of a value seen before: %v allocations, budget 0", got)
	}
	// New INT values cost the set's growth, amortised to nothing: no string.
	for i := int64(0); i < 1000; i++ {
		distinct.Add(Int(i))
	}
	next := int64(1000)
	if got := testing.AllocsPerRun(100, func() { distinct.Add(Int(next)); next++ }); got != 0 {
		t.Errorf("COUNT(DISTINCT) of a new INT value on a warmed set: %v allocations, budget 0", got)
	}
	if got := distinct.Result(); !got.Identical(Int(next)) {
		t.Fatalf("COUNT(DISTINCT) of 0..%d = %v", next-1, got)
	}
	// A reset keeps a set of up to maxKeptDistinct values: a group of that
	// many new INT values on it costs nothing, also after a group that went
	// to text.
	distinct = NewAcc(AggCountDistinct)
	distinct.Add(Str("x"))
	for i := int64(0); i < maxKeptDistinct-1; i++ {
		distinct.Add(Int(i))
	}
	distinct.Reset(AggCountDistinct)
	for i := int64(0); i < maxKeptDistinct; i++ {
		distinct.Add(Int(i))
	}
	base := int64(0)
	if got := testing.AllocsPerRun(100, func() {
		distinct.Reset(AggCountDistinct)
		base += maxKeptDistinct
		for i := base; i < base+maxKeptDistinct; i++ {
			distinct.Add(Int(i))
		}
	}); got != 0 {
		t.Errorf("COUNT(DISTINCT) reset, then %d new INT values: %v allocations, budget 0", maxKeptDistinct, got)
	}
	if got := distinct.Result(); !got.Identical(Int(maxKeptDistinct)) {
		t.Fatalf("COUNT(DISTINCT) of %d values after a reset = %v", maxKeptDistinct, got)
	}
}
