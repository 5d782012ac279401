package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ysmart/internal/sqlparser"
)

// referencePredicate is the generic path CompilePredicate replaced and is
// held to: Compile's evaluator, judged by the WHERE rule that only a
// non-NULL TRUE passes and any other non-NULL value is an error.
func referencePredicate(e sqlparser.Expr, s *Schema) (func(Row) (bool, error), error) {
	ev, err := Compile(e, s)
	if err != nil {
		return nil, err
	}
	return func(r Row) (bool, error) {
		v, err := ev(r)
		if err != nil {
			return false, err
		}
		if v.IsNull() {
			return false, nil
		}
		if v.T != TypeBool {
			return false, fmt.Errorf("predicate evaluated to %s, want bool", v.T)
		}
		return v.B, nil
	}, nil
}

func TestCompilePredicate(t *testing.T) {
	s := testSchema()
	pass := func(sql string) (bool, error) {
		t.Helper()
		stmt, err := sqlparser.Parse("SELECT " + sql + " FROM t")
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		p, err := CompilePredicate(stmt.Select[0].Expr, s)
		if err != nil {
			t.Fatalf("compile %q: %v", sql, err)
		}
		return p(sampleRow)
	}
	for _, tt := range []struct {
		sql    string
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
		{sql: "(n = 0) AND i"}, // NULL AND a non-boolean is NULL, as in Compile
		{sql: "i = s", errHas: "cannot compare int with string"},
	} {
		got, err := pass(tt.sql)
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

// predSchema types the random predicates' columns. Rows fed to them carry
// values of any type in any column, as reduce-side rows decoded by syntax
// do.
var predSchema = NewSchema(
	Column{Table: "t", Name: "i", Type: TypeInt},
	Column{Table: "t", Name: "f", Type: TypeFloat},
	Column{Table: "t", Name: "s", Type: TypeString},
	Column{Table: "t", Name: "b", Type: TypeBool},
	Column{Table: "t", Name: "j", Type: TypeInt},
	Column{Table: "t", Name: "u", Type: TypeString},
)

var predFloats = []float64{0, math.Copysign(0, -1), 1.5, 2, -3.25, math.NaN(), math.Inf(1)}

func randomLiteral(rng *rand.Rand) *sqlparser.Literal {
	switch rng.Intn(6) {
	case 0:
		return &sqlparser.Literal{Kind: sqlparser.LitInt, Int: int64(rng.Intn(7) - 3)}
	case 1:
		return &sqlparser.Literal{Kind: sqlparser.LitFloat, Float: predFloats[rng.Intn(len(predFloats))]}
	case 2:
		return &sqlparser.Literal{Kind: sqlparser.LitString, Str: []string{"", "a", "b", "2"}[rng.Intn(4)]}
	case 3:
		return &sqlparser.Literal{Kind: sqlparser.LitBool, Bool: rng.Intn(2) == 0}
	default:
		if rng.Intn(2) == 0 {
			return &sqlparser.Literal{Kind: sqlparser.LitNull}
		}
		return &sqlparser.Literal{Kind: sqlparser.LitInt, Int: int64(rng.Intn(3))}
	}
}

// randomOperand is a column (now and then one the schema does not have, a
// compile error), a literal, or an expression only the generic evaluator
// handles.
func randomOperand(rng *rand.Rand) sqlparser.Expr {
	switch n := rng.Intn(20); {
	case n < 9:
		names := []string{"i", "f", "s", "b", "j", "u"}
		ref := &sqlparser.ColumnRef{Name: names[rng.Intn(len(names))]}
		if rng.Intn(4) == 0 {
			ref.Qualifier = "t"
		}
		if rng.Intn(150) == 0 {
			ref.Name = "nosuch"
		}
		return ref
	case n < 17:
		return randomLiteral(rng)
	case n < 19:
		return &sqlparser.BinaryExpr{Op: sqlparser.OpAdd, L: randomOperand(rng), R: randomLiteral(rng)}
	default:
		return &sqlparser.FuncCall{Name: "COALESCE", Args: []sqlparser.Expr{randomOperand(rng), randomLiteral(rng)}}
	}
}

var predComparisons = []sqlparser.BinaryOp{sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe}

// randomPredicate builds a predicate tree of AND, OR and NOT over the six
// comparisons, BETWEEN, IN and IS [NOT] NULL, with bare operands (a bool
// column, or a value that is no boolean at all) among the leaves.
func randomPredicate(rng *rand.Rand, depth int) sqlparser.Expr {
	if depth > 0 && rng.Intn(3) > 0 {
		switch rng.Intn(5) {
		case 0, 1:
			return &sqlparser.BinaryExpr{Op: sqlparser.OpAnd, L: randomPredicate(rng, depth-1), R: randomPredicate(rng, depth-1)}
		case 2, 3:
			return &sqlparser.BinaryExpr{Op: sqlparser.OpOr, L: randomPredicate(rng, depth-1), R: randomPredicate(rng, depth-1)}
		default:
			return &sqlparser.UnaryExpr{Op: sqlparser.OpNot, X: randomPredicate(rng, depth-1)}
		}
	}
	switch rng.Intn(9) {
	case 0, 1, 2:
		return &sqlparser.BinaryExpr{Op: predComparisons[rng.Intn(len(predComparisons))], L: randomOperand(rng), R: randomOperand(rng)}
	case 3:
		return &sqlparser.IsNullExpr{X: randomOperand(rng), Not: rng.Intn(2) == 0}
	case 4:
		return &sqlparser.BetweenExpr{X: randomOperand(rng), Lo: randomOperand(rng), Hi: randomOperand(rng), Not: rng.Intn(2) == 0}
	case 5:
		items := make([]sqlparser.Expr, 1+rng.Intn(3))
		for i := range items {
			items[i] = randomOperand(rng)
		}
		return &sqlparser.InListExpr{X: randomOperand(rng), Items: items, Not: rng.Intn(2) == 0}
	case 6:
		return &sqlparser.ColumnRef{Name: "b"}
	default:
		return randomOperand(rng)
	}
}

// randomPredRow is a row of values whose run-time types may disagree with
// predSchema — an int in a string column, NULL anywhere, NaN and -0.0,
// ints beside floats — and which is now and then shorter than the schema.
func randomPredRow(rng *rand.Rand) Row {
	n := predSchema.Len()
	if rng.Intn(8) == 0 {
		n = rng.Intn(n)
	}
	r := make(Row, n)
	for i := range r {
		switch rng.Intn(6) {
		case 0:
			r[i] = Int(int64(rng.Intn(7) - 3))
		case 1:
			r[i] = Float(predFloats[rng.Intn(len(predFloats))])
		case 2:
			r[i] = Str([]string{"", "a", "b", "2"}[rng.Intn(4)])
		case 3:
			r[i] = Bool(rng.Intn(2) == 0)
		case 4:
			r[i] = Null()
		default:
			// The column's own type, as a well-typed row has it.
			switch predSchema.Cols[i].Type {
			case TypeInt:
				r[i] = Int(int64(rng.Intn(5) - 2))
			case TypeFloat:
				r[i] = Float(float64(rng.Intn(5)) / 2)
			case TypeString:
				r[i] = Str([]string{"a", "b"}[rng.Intn(2)])
			default:
				r[i] = Bool(rng.Intn(2) == 0)
			}
		}
	}
	return r
}

// checkPredicate compiles e both ways and runs both over every row: the
// same compile error or none, and per row the same verdict and error text.
func checkPredicate(t *testing.T, e sqlparser.Expr, rows []Row) (errs int) {
	t.Helper()
	got, gotErr := CompilePredicate(e, predSchema)
	want, wantErr := referencePredicate(e, predSchema)
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: compile error %v, generic %v", e.SQL(), gotErr, wantErr)
		}
		return 0
	}
	for _, r := range rows {
		ok, err := got(r)
		wok, werr := want(r)
		if fmt.Sprint(err) != fmt.Sprint(werr) || ok != wok {
			t.Fatalf("%s over %v = (%v, %v), generic (%v, %v)", e.SQL(), r, ok, err, wok, werr)
		}
		if err != nil {
			errs++
		}
	}
	return errs
}

// TestCompilePredicateMatchesGeneric is the differential property test:
// random predicate trees over random rows whose types disagree with the
// schema pass and fail exactly as the generic evaluator does, with the
// same error text.
func TestCompilePredicateMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	errs := 0
	for trial := 0; trial < 4000; trial++ {
		rows := make([]Row, 8)
		for i := range rows {
			rows[i] = randomPredRow(rng)
		}
		errs += checkPredicate(t, randomPredicate(rng, 3), rows)
	}
	if errs == 0 {
		t.Error("no random predicate failed at run time: the error paths went untested")
	}
}

// FuzzCompilePredicate drives the differential check with fuzzed rows: the
// line decodes over TypeNull columns (so column types follow the text, not
// predSchema) and the seed picks the predicate.
func FuzzCompilePredicate(f *testing.F) {
	f.Add(int64(1), "1\t2.5\tabc\ttrue\t\\N\t7")
	f.Add(int64(2), "NaN\t-0.0\t123\tfalse\t3")
	f.Add(int64(3), "")
	f.Add(int64(4), "a\tb\tc\td\te\tf\tg")
	f.Fuzz(func(t *testing.T, seed int64, line string) {
		row, err := decodeNullCols(line)
		if err != nil {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 16; i++ {
			checkPredicate(t, randomPredicate(rng, 3), []Row{row})
		}
	})
}

// TestAllocBudgetPredicate: a compiled comparison of columns and constants
// reads them in place and builds no Value, so it costs nothing per row.
func TestAllocBudgetPredicate(t *testing.T) {
	row := Row{Int(10), Float(2.5), Str("abc"), Bool(true), Int(3), Str("x")}
	for _, sql := range []string{"i > 5", "f <= j", "s = 'abc'", "i >= 1 AND i <= 20 AND s <> u", "j = 9 OR j < 4", "u IS NOT NULL"} {
		stmt, err := sqlparser.Parse("SELECT " + sql + " FROM t")
		if err != nil {
			t.Fatal(err)
		}
		p, err := CompilePredicate(stmt.Select[0].Expr, predSchema)
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() { sinkBool, _ = p(row) }); got != 0 {
			t.Errorf("%s: %v allocations per row, budget 0", sql, got)
		}
	}
}

var sinkBool bool
