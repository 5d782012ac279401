package exec

import (
	"math"
	"testing"

	"ysmart/internal/sqlparser"
)

// Additional InferType branch coverage beyond the happy paths.
func TestInferTypeEdgeBranches(t *testing.T) {
	s := testSchema()
	tests := []struct {
		expr string
		want Type
	}{
		{"NULL", TypeNull},
		{"NOT b", TypeBool},
		{"-i", TypeInt},
		{"-f", TypeFloat},
		{"-NULL", TypeNull},
		{"NULL + i", TypeInt},
		{"i BETWEEN 1 AND 2", TypeBool},
		{"i IN (1, 2)", TypeBool},
		{"coalesce(i, 2)", TypeInt},
		{"coalesce(NULL, s)", TypeString}, // the first argument that can be non-NULL
		{"coalesce(NULL, NULL, f)", TypeFloat},
		{"coalesce(NULL)", TypeNull},
		{"length(s)", TypeInt},
		{"abs(i)", TypeInt},
		{"lower(s)", TypeString},
		{"b AND NULL", TypeBool},
		{"NOT NULL", TypeBool},
		{"i = f", TypeBool},
		{"s < NULL", TypeBool},
		{"s IS NULL", TypeBool},
		{"s IN ('x', NULL)", TypeBool},
		{"f BETWEEN 1 AND 2.5", TypeBool},
		{"CASE WHEN NULL THEN 1 END", TypeInt},
		{"CASE WHEN b THEN NULL ELSE 'x' END", TypeString},
		{"CASE WHEN b THEN NULL END", TypeNull},
		// INT arms mixed with FLOAT ones type FLOAT, in either order; any
		// other mix is an error (TestInferTypeErrors).
		{"CASE WHEN b THEN 1 ELSE 2.5 END", TypeFloat},
		{"CASE WHEN b THEN 2.5 ELSE 1 END", TypeFloat},
		{"CASE WHEN b THEN NULL WHEN i > 1 THEN i ELSE f END", TypeFloat},
		{"coalesce(i, 2.5)", TypeFloat},
		{"coalesce(NULL, f, i)", TypeFloat},
	}
	for _, tt := range tests {
		stmt, err := sqlparser.Parse("SELECT " + tt.expr + " FROM t")
		if err != nil {
			t.Fatalf("parse %q: %v", tt.expr, err)
		}
		got, err := InferType(stmt.Select[0].Expr, s)
		if err != nil {
			t.Fatalf("InferType(%q): %v", tt.expr, err)
		}
		if got != tt.want {
			t.Errorf("InferType(%q) = %v, want %v", tt.expr, got, tt.want)
		}
	}
}

func TestInferTypeErrors(t *testing.T) {
	s := testSchema()
	bad := []struct{ expr, errHas string }{
		{"nosuchcol", ""},
		{"nosuchcol + 1", ""},
		{"nosuchfunc(i)", ""},
		// Aggregates are never scalar: the planner replaces each with a
		// column of its aggregation, and AggKind.ResultType types it.
		{"count(*)", "aggregate COUNT is not allowed here"},
		{"count(distinct s)", "aggregate COUNT is not allowed here"},
		{"avg(i)", "aggregate AVG is not allowed here"},
		{"sum(nosuchcol)", "aggregate SUM is not allowed here"},
		{"min(f)", "aggregate MIN is not allowed here"},
		{"max(s)", "aggregate MAX is not allowed here"},
		{"i IN (SELECT i FROM t)", "IN (SELECT ...) is only supported as a top-level WHERE conjunct"},
		// Each scalar function's signature: its arity and argument types.
		{"abs(i, f)", "ABS takes 1 argument(s), got 2"},
		{"lower()", "LOWER takes 1 argument(s), got 0"},
		{"coalesce()", "COALESCE needs at least one argument"},
		{"lower(DISTINCT s)", "DISTINCT specified, but LOWER is not an aggregate function"},
		{"abs(s)", "ABS of string"},
		{"abs(b)", "ABS of bool"},
		{"upper(f)", "UPPER of float"},
		{"length(i)", "LENGTH of int"},
		{"lower(nosuchcol)", ""},
		{"CASE WHEN b THEN nosuchcol END", ""},
		{"coalesce(NULL, nosuchcol)", ""},
		// Arms that are neither one type nor an INT/FLOAT mix do not unify.
		{"CASE WHEN b THEN 'x' ELSE 2.5 END", "CASE types string and float cannot be matched"},
		{"CASE WHEN b THEN 1 ELSE 'x' END", "CASE types int and string cannot be matched"},
		{"coalesce(i, s)", "COALESCE types int and string cannot be matched"},
		{"CASE WHEN b THEN 1 WHEN i > 1 THEN 2.5 ELSE b END", "CASE types float and bool cannot be matched"},
		// Arithmetic and unary minus want numbers or NULL, as the evaluator does.
		{"s + 1", "arithmetic on string and int"},
		{"i * b", "arithmetic on int and bool"},
		{"NULL - s", "arithmetic on null and string"},
		{"-s", "cannot negate string"},
		{"-(i > 1)", "cannot negate bool"},
		// Comparisons follow compareValues; AND, OR, NOT and CASE WHEN
		// conditions want BOOL or NULL, as the evaluator does.
		{"i AND b", "AND requires booleans, got int and bool"},
		{"b OR s", "OR requires booleans, got bool and string"},
		{"NOT f", "NOT applied to float"},
		{"s > 2", "cannot compare string with int"},
		{"b = i", "cannot compare bool with int"},
		{"s IN (1, 2)", "cannot compare string with int"},
		{"i IN (1, 's')", "cannot compare int with string"},
		{"s BETWEEN 'a' AND 2", "cannot compare string with int"},
		{"nosuchcol IS NULL", ""},
		{"CASE WHEN i THEN 1 END", "CASE WHEN condition is int, not bool"},
	}
	for _, tt := range bad {
		stmt, err := sqlparser.Parse("SELECT " + tt.expr + " FROM t")
		if err != nil {
			t.Fatalf("parse %q: %v", tt.expr, err)
		}
		_, err = InferType(stmt.Select[0].Expr, s)
		switch {
		case err == nil:
			t.Errorf("InferType(%q) succeeded, want error", tt.expr)
		case tt.errHas != "" && err.Error() != tt.errHas:
			t.Errorf("InferType(%q): %v, want %q", tt.expr, err, tt.errHas)
		}
	}
}

// typeSoundRows are rows of testSchema's types that stress the
// evaluators: the sample row, all NULLs, the int64 extremes with NaN, and
// -0.0 with a string the codec escapes.
var typeSoundRows = []Row{
	sampleRow,
	NullRow(5),
	{Int(math.MinInt64), Float(math.NaN()), Str(""), Bool(false), Int(math.MaxInt64)},
	{Int(0), Float(math.Copysign(0, -1)), Str("\\N\t\n\\"), Bool(true), Int(-1)},
}

// FuzzTypeSound holds Compile to InferType: an expression InferType types
// compiles, and on every row of the schema's types evaluates without error
// to a value of the inferred type or NULL — so the evaluators need no type
// check of their own.
func FuzzTypeSound(f *testing.F) {
	for _, tt := range inferTypeCases {
		f.Add(tt.expr)
	}
	for _, probe := range []string{
		"lower(i)", "abs(s)", "length(i)", "abs(i, n)", "coalesce()", "ABs()",
		"count(*) > 1", "i IN (SELECT i FROM t)", "count(*)", "avg(i)", "sum(f)", "max(s)",
		"-i", "i % n", "f / 0", "NOT (n = 0) OR b", "coalesce(n, f, i)",
		"CASE WHEN f > i THEN i ELSE f END", "i NOT BETWEEN n AND 3", "s IN ('\\N', lower(s), NULL)",
	} {
		f.Add(probe)
	}
	s := testSchema()
	f.Fuzz(func(t *testing.T, expr string) {
		stmt, err := sqlparser.Parse("SELECT " + expr + " FROM t")
		if err != nil || len(stmt.Select) == 0 || stmt.Select[0].Star {
			return
		}
		e := stmt.Select[0].Expr
		want, err := InferType(e, s)
		if err != nil {
			return
		}
		ev, err := Compile(e, s)
		if err != nil {
			t.Fatalf("InferType(%s) = %s, but Compile: %v", e.SQL(), want, err)
		}
		for _, row := range typeSoundRows {
			v, err := ev(row)
			if err != nil || v.T != want && !v.IsNull() {
				t.Fatalf("%s over %v = (%v, %v), want a %s or NULL", e.SQL(), row, v, err, want)
			}
		}
	})
}

func TestAggKindString(t *testing.T) {
	for kind, want := range map[AggKind]string{
		AggCountStar:     "COUNT(*)",
		AggCount:         "COUNT",
		AggCountDistinct: "COUNT(DISTINCT)",
		AggSum:           "SUM",
		AggAvg:           "AVG",
		AggMin:           "MIN",
		AggMax:           "MAX",
	} {
		if got := kind.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", kind, got, want)
		}
	}
}
