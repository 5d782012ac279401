package exec

import (
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
		{"i BETWEEN 1 AND 2", TypeBool},
		{"i IN (1, 2)", TypeBool},
		{"count(distinct s)", TypeInt},
		{"min(f)", TypeFloat},
		{"coalesce(i, 2)", TypeInt},
		{"coalesce(NULL, s)", TypeString}, // the first argument that can be non-NULL
		{"coalesce(NULL, NULL, f)", TypeFloat},
		{"coalesce(NULL)", TypeNull},
		{"length(s)", TypeInt},
		{"abs(i)", TypeInt},
		{"lower(s)", TypeString},
		{"i AND b", TypeBool}, // typing is structural; evaluation rejects it
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
		{"sum(nosuchcol)", ""},
		{"CASE WHEN b THEN nosuchcol END", ""},
		{"coalesce(NULL, nosuchcol)", ""},
		// Arms that are neither one type nor an INT/FLOAT mix do not unify.
		{"CASE WHEN b THEN 'x' ELSE 2.5 END", "CASE types string and float cannot be matched"},
		{"CASE WHEN b THEN 1 ELSE 'x' END", "CASE types int and string cannot be matched"},
		{"coalesce(i, s)", "COALESCE types int and string cannot be matched"},
		{"CASE WHEN b THEN 1 WHEN i > 1 THEN 2.5 ELSE b END", "CASE types float and bool cannot be matched"},
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
