package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ysmart/internal/sqlparser"
)

var nanRow = Row{Int(10), Float(math.NaN()), Str("abc"), Bool(true), Null()}

func TestCompilePredicate(t *testing.T) {
	s := testSchema()
	for _, tt := range []struct {
		sql    string
		row    Row // sampleRow when nil
		want   bool
		errHas string
	}{
		{sql: "i > 5", want: true},
		{sql: "i > 50"},
		{sql: "n = 0"}, // NULL does not pass
		{sql: "f BETWEEN 2 AND 3", want: true},
		{sql: "s IN ('x', 'abc')", want: true},
		{sql: "n IS NULL AND NOT (i < 0)", want: true},
		{sql: "i", errHas: "predicate evaluated to int, want bool"},
		{sql: "TRUE AND i", errHas: "AND requires booleans, got bool and int"},
		{sql: "(n = 0) AND i"}, // NULL AND a non-boolean is NULL
		{sql: "i = s", errHas: "cannot compare int with string"},
		// Each operand kind — column, literal, expression — on each side.
		{sql: "5 < i", want: true},
		{sql: "i > f", want: true},
		{sql: "i + 0 > 5", want: true},
		{sql: "5 < i + 0", want: true},
		{sql: "i = i * 1", want: true},
		{sql: "i * 1 <> i"},
		{sql: "abs(i) = i + 0", want: true},
		{sql: "1 < 2", want: true},
		{sql: "'abc' = s", want: true},
		{sql: "s = lower('ABC')", want: true},
		{sql: "lower(s) > 'abd'"},
		{sql: "n + 1 < 3"}, // NULL through an expression
		// A row shorter than the schema, read by each operand kind.
		{sql: "s = 'abc'", row: Row{Int(10)}, errHas: "row too short: index 2, len 1"},
		{sql: "'abc' = s", row: Row{Int(10)}, errHas: "row too short: index 2, len 1"},
		{sql: "lower(s) = 'abc'", row: Row{Int(10)}, errHas: "row too short: index 2, len 1"},
		{sql: "i > 5 AND f > 1", row: Row{Int(10)}, errHas: "row too short: index 1, len 1"},
		{sql: "i < 5 AND f > 1", row: Row{Int(10)}}, // FALSE short-circuits
		// NaN equals NaN and sorts above every other number.
		{sql: "f = 1", row: nanRow},
		{sql: "f <> 1", row: nanRow, want: true},
		{sql: "f > 1", row: nanRow, want: true},
		{sql: "f = f", row: nanRow, want: true},
		{sql: "f < i + 0.5", row: nanRow},
	} {
		stmt, err := sqlparser.Parse("SELECT " + tt.sql + " FROM t")
		if err != nil {
			t.Fatalf("parse %q: %v", tt.sql, err)
		}
		p, err := CompilePredicate(stmt.Select[0].Expr, s)
		if err != nil {
			t.Fatalf("compile %q: %v", tt.sql, err)
		}
		row := tt.row
		if row == nil {
			row = sampleRow
		}
		got, err := p(row)
		switch {
		case tt.errHas != "":
			if err == nil || err.Error() != tt.errHas {
				t.Errorf("%s: err = %v, want %q", tt.sql, err, tt.errHas)
			}
		case err != nil || got != tt.want:
			t.Errorf("%s = (%v, %v), want (%v, nil)", tt.sql, got, err, tt.want)
		}
	}
}

var comparisons = []sqlparser.BinaryOp{sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe}

// fuzzValue builds a value of the kind k picks from the fuzzer's scalars.
func fuzzValue(k uint8, i int64, f float64, s string) Value {
	switch k % 5 {
	case 0:
		return Null()
	case 1:
		return Int(i)
	case 2:
		return Float(f)
	case 3:
		return Str(s)
	}
	return Bool(i&1 != 0)
}

// FuzzCompare holds the in-place comparison Compile builds to
// compareValues: for all six operators, over fuzzed value pairs, the same
// value and the same error text, called directly and through a compiled
// comparison of two columns the plan could not type.
func FuzzCompare(f *testing.F) {
	nan, inf, sub := math.NaN(), math.Inf(1), math.SmallestNonzeroFloat64
	negZero := math.Copysign(0, -1)
	f.Add(uint8(2), int64(0), nan, "", uint8(2), int64(0), nan, "")
	f.Add(uint8(2), int64(0), nan, "", uint8(1), int64(1), 0.0, "")
	f.Add(uint8(2), int64(0), negZero, "", uint8(2), int64(0), 0.0, "")
	f.Add(uint8(2), int64(0), negZero, "", uint8(1), int64(0), 0.0, "")
	f.Add(uint8(2), int64(0), inf, "", uint8(2), int64(0), -inf, "")
	f.Add(uint8(2), int64(0), nan, "", uint8(2), int64(0), inf, "")
	f.Add(uint8(2), int64(0), sub, "", uint8(2), int64(0), -sub, "")
	f.Add(uint8(1), int64(2), 0.0, "", uint8(2), int64(0), 2.0, "")
	f.Add(uint8(1), int64(1)<<53+1, 0.0, "", uint8(2), int64(0), float64(int64(1)<<53), "")
	f.Add(uint8(3), int64(0), 0.0, "abc", uint8(3), int64(0), 0.0, "abd")
	f.Add(uint8(3), int64(0), 0.0, "", uint8(1), int64(0), 0.0, "")
	f.Add(uint8(4), int64(1), 0.0, "", uint8(4), int64(0), 0.0, "")
	f.Add(uint8(0), int64(0), 0.0, "", uint8(2), int64(0), nan, "")
	f.Add(uint8(4), int64(0), 0.0, "", uint8(2), int64(0), 1.5, "")
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa float64, sa string, kb uint8, ib int64, fb float64, sb string) {
		a, b := fuzzValue(ka, ia, fa, sa), fuzzValue(kb, ib, fb, sb)
		row := Row{a, b}
		for _, op := range comparisons {
			want, wantErr := compareValues(op, a, b)
			c := comparison{op: op, want: outcomesOf(op)}
			got, err := c.compare(&a, &b)
			if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("compare(%v, %v, %v) = (%v, %v), compareValues (%v, %v)", op, a, b, got, err, want, wantErr)
			}
			ev, err := Compile(&sqlparser.BinaryExpr{Op: op, L: &sqlparser.ColumnRef{Name: "c0"}, R: &sqlparser.ColumnRef{Name: "c1"}}, nullSchema(2))
			if err != nil {
				t.Fatal(err)
			}
			got, err = ev(row)
			if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("compiled %v over (%v, %v) = (%v, %v), compareValues (%v, %v)", op, a, b, got, err, want, wantErr)
			}
		}
	})
}

// hostileFloats are the floats IEEE 754 orders partially or with two
// zeros: NaN (with and without the sign bit), -0.0, the infinities and
// subnormals.
var hostileFloats = []float64{
	math.NaN(), math.Copysign(math.NaN(), -1), math.Copysign(0, -1), 0,
	math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1,
}

func randomOrderValue(rng *rand.Rand) Value {
	switch rng.Intn(3) {
	case 0:
		return Float(hostileFloats[rng.Intn(len(hostileFloats))])
	case 1:
		return Int(int64(rng.Intn(5) - 2))
	}
	return randomValue(rng)
}

// TestCompareTotalOrder: over random triples that include NaN, -0.0 and
// the infinities, Compare is reflexive, antisymmetric and transitive, and
// EncodeOrderedKey realizes it: Compare-equal values encode alike.
func TestCompareTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 20000; trial++ {
		x, y, z := randomOrderValue(rng), randomOrderValue(rng), randomOrderValue(rng)
		if c := Compare(x, x); c != 0 {
			t.Fatalf("Compare(%v, %v) = %d, want 0", x, x, c)
		}
		if c, d := Compare(x, y), Compare(y, x); c != -d {
			t.Fatalf("Compare(%v, %v) = %d but Compare(%v, %v) = %d", x, y, c, y, x, d)
		}
		if Compare(x, y) <= 0 && Compare(y, z) <= 0 && Compare(x, z) > 0 {
			t.Fatalf("%v <= %v <= %v but Compare(%v, %v) > 0", x, y, z, x, z)
		}
		kx, ky := EncodeOrderedKey([]Value{x}, nil), EncodeOrderedKey([]Value{y}, nil)
		if got, want := strCompare(kx, ky), Compare(x, y); got != want {
			t.Fatalf("keys of %v and %v order %d, Compare %d", x, y, got, want)
		}
	}
}

// TestAllocBudgetPredicate: a compiled comparison of columns and constants
// reads them in place and builds no Value but its result, so it costs
// nothing per row.
func TestAllocBudgetPredicate(t *testing.T) {
	s := NewSchema(
		Column{Table: "t", Name: "i", Type: TypeInt},
		Column{Table: "t", Name: "f", Type: TypeFloat},
		Column{Table: "t", Name: "s", Type: TypeString},
		Column{Table: "t", Name: "b", Type: TypeBool},
		Column{Table: "t", Name: "j", Type: TypeInt},
		Column{Table: "t", Name: "u", Type: TypeString},
	)
	row := Row{Int(10), Float(2.5), Str("abc"), Bool(true), Int(3), Str("x")}
	for _, sql := range []string{"i > 5", "f <= j", "s = 'abc'", "i >= 1 AND i <= 20 AND s <> u", "j = 9 OR j < 4", "u IS NOT NULL"} {
		stmt, err := sqlparser.Parse("SELECT " + sql + " FROM t")
		if err != nil {
			t.Fatal(err)
		}
		p, err := CompilePredicate(stmt.Select[0].Expr, s)
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() { sinkBool, _ = p(row) }); got != 0 {
			t.Errorf("%s: %v allocations per row, budget 0", sql, got)
		}
	}
}

var sinkBool bool
