package exec

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"ysmart/internal/sqlparser"
)

// compileExpr parses "SELECT <exprSQL> FROM t" and compiles the single item.
func compileExpr(t *testing.T, exprSQL string, s *Schema) Evaluator {
	t.Helper()
	stmt, err := sqlparser.Parse("SELECT " + exprSQL + " FROM t")
	if err != nil {
		t.Fatalf("parse %q: %v", exprSQL, err)
	}
	ev, err := Compile(stmt.Select[0].Expr, s)
	if err != nil {
		t.Fatalf("compile %q: %v", exprSQL, err)
	}
	return ev
}

func testSchema() *Schema {
	return NewSchema(
		Column{Table: "t", Name: "i", Type: TypeInt},
		Column{Table: "t", Name: "f", Type: TypeFloat},
		Column{Table: "t", Name: "s", Type: TypeString},
		Column{Table: "t", Name: "b", Type: TypeBool},
		Column{Table: "t", Name: "n", Type: TypeInt},
	)
}

func evalOn(t *testing.T, exprSQL string, row Row) Value {
	t.Helper()
	ev := compileExpr(t, exprSQL, testSchema())
	v, err := ev(row)
	if err != nil {
		t.Fatalf("eval %q: %v", exprSQL, err)
	}
	return v
}

var sampleRow = Row{Int(10), Float(2.5), Str("abc"), Bool(true), Null()}

func TestCompileColumnAndLiteral(t *testing.T) {
	tests := []struct {
		expr string
		want Value
	}{
		{"i", Int(10)},
		{"t.i", Int(10)},
		{"f", Float(2.5)},
		{"s", Str("abc")},
		{"b", Bool(true)},
		{"n", Null()},
		{"42", Int(42)},
		{"2.5", Float(2.5)},
		{"'hi'", Str("hi")},
		{"TRUE", Bool(true)},
		{"NULL", Null()},
	}
	for _, tt := range tests {
		if got := evalOn(t, tt.expr, sampleRow); !got.Identical(tt.want) {
			t.Errorf("%s = %v, want %v", tt.expr, got, tt.want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	tests := []struct {
		expr string
		want Value
	}{
		{"i + 1", Int(11)},
		{"i - 3", Int(7)},
		{"i * 2", Int(20)},
		{"i % 3", Int(1)},
		{"i / 4", Float(2.5)},  // division is always float
		{"i / 0", Null()},      // div by zero -> NULL (total function)
		{"i + f", Float(12.5)}, // int+float promotes
		{"f * 2", Float(5)},
		{"0.2 * i", Float(2)},
		{"i + n", Null()}, // NULL propagates
		{"n * 2", Null()},
		{"-i", Int(-10)},
		{"-f", Float(-2.5)},
		{"-n", Null()},
		{"i % 0", Null()},
	}
	for _, tt := range tests {
		if got := evalOn(t, tt.expr, sampleRow); !got.Identical(tt.want) {
			t.Errorf("%s = %v, want %v", tt.expr, got, tt.want)
		}
	}
}

func TestComparisons(t *testing.T) {
	tests := []struct {
		expr string
		want Value
	}{
		{"i = 10", Bool(true)},
		{"i <> 10", Bool(false)},
		{"i < 11", Bool(true)},
		{"i <= 10", Bool(true)},
		{"i > 10", Bool(false)},
		{"i >= 11", Bool(false)},
		{"f = 2.5", Bool(true)},
		{"i > f", Bool(true)}, // cross numeric comparison
		{"s = 'abc'", Bool(true)},
		{"s < 'abd'", Bool(true)},
		{"n = 0", Null()}, // NULL comparison -> NULL
		{"n <> 0", Null()},
		{"i = n", Null()},
	}
	for _, tt := range tests {
		if got := evalOn(t, tt.expr, sampleRow); !got.Identical(tt.want) {
			t.Errorf("%s = %v, want %v", tt.expr, got, tt.want)
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	tests := []struct {
		expr string
		want Value
	}{
		{"TRUE AND TRUE", Bool(true)},
		{"TRUE AND FALSE", Bool(false)},
		{"FALSE AND (n = 0)", Bool(false)}, // FALSE AND NULL = FALSE
		{"(n = 0) AND FALSE", Bool(false)},
		{"TRUE AND (n = 0)", Null()},    // TRUE AND NULL = NULL
		{"TRUE OR (n = 0)", Bool(true)}, // TRUE OR NULL = TRUE
		{"(n = 0) OR TRUE", Bool(true)},
		{"FALSE OR (n = 0)", Null()}, // FALSE OR NULL = NULL
		{"NOT (n = 0)", Null()},      // NOT NULL = NULL
		{"NOT FALSE", Bool(true)},
	}
	for _, tt := range tests {
		if got := evalOn(t, tt.expr, sampleRow); !got.Identical(tt.want) {
			t.Errorf("%s = %v, want %v", tt.expr, got, tt.want)
		}
	}
}

func TestIsNullBetweenInCase(t *testing.T) {
	tests := []struct {
		expr string
		want Value
	}{
		{"n IS NULL", Bool(true)},
		{"i IS NULL", Bool(false)},
		{"n IS NOT NULL", Bool(false)},
		{"i BETWEEN 5 AND 15", Bool(true)},
		{"i BETWEEN 11 AND 15", Bool(false)},
		{"i NOT BETWEEN 11 AND 15", Bool(true)},
		{"n BETWEEN 1 AND 2", Null()},
		{"i IN (1, 10, 100)", Bool(true)},
		{"i IN (1, 2)", Bool(false)},
		{"i NOT IN (1, 2)", Bool(true)},
		{"n IN (1, 2)", Null()},
		{"i IN (1, n)", Null()},      // no match but NULL present
		{"i IN (10, n)", Bool(true)}, // match wins over NULL
		{"CASE WHEN i > 5 THEN 'big' ELSE 'small' END", Str("big")},
		{"CASE WHEN i > 50 THEN 'big' END", Null()},
		{"CASE WHEN n = 0 THEN 'x' ELSE 'y' END", Str("y")}, // NULL cond not taken
		// INT arms of a CASE typed FLOAT by a FLOAT arm evaluate as FLOAT.
		{"CASE WHEN i > 5 THEN 1 ELSE 2.5 END", Float(1)},
		{"CASE WHEN i > 50 THEN 1 ELSE 2.5 END", Float(2.5)},
		{"CASE WHEN i > 5 THEN i WHEN b THEN f END", Float(10)},
	}
	for _, tt := range tests {
		if got := evalOn(t, tt.expr, sampleRow); !got.Identical(tt.want) {
			t.Errorf("%s = %v, want %v", tt.expr, got, tt.want)
		}
	}
}

func TestScalarFuncs(t *testing.T) {
	tests := []struct {
		expr string
		want Value
	}{
		{"abs(-3)", Int(3)},
		{"abs(f)", Float(2.5)},
		{"upper(s)", Str("ABC")},
		{"lower('ABC')", Str("abc")},
		{"length(s)", Int(3)},
		{"coalesce(n, i)", Int(10)},
		{"coalesce(n, n)", Null()},
		{"coalesce(i, 2.5)", Float(10)}, // typed FLOAT: the INT argument widens
		{"coalesce(n, 2.5)", Float(2.5)},
		{"coalesce(n, 3, f)", Float(3)},
	}
	for _, tt := range tests {
		if got := evalOn(t, tt.expr, sampleRow); !got.Identical(tt.want) {
			t.Errorf("%s = %v, want %v", tt.expr, got, tt.want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	s := testSchema()
	bad := []string{
		"nosuch",
		"u.i",
		"sum(i)", // aggregate in scalar context
		"nosuchfunc(i)",
		"abs(i, f)",
	}
	for _, exprSQL := range bad {
		stmt, err := sqlparser.Parse("SELECT " + exprSQL + " FROM t")
		if err != nil {
			t.Fatalf("parse %q: %v", exprSQL, err)
		}
		if _, err := Compile(stmt.Select[0].Expr, s); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", exprSQL)
		}
	}
}

// TestEvalErrors: an operand type no row could make the evaluator accept
// is Compile's error, with InferType's text, not an error per row.
func TestEvalErrors(t *testing.T) {
	s := testSchema()
	for _, tt := range []struct{ expr, want string }{
		{"s + 1", "arithmetic on string and int"},
		{"-s", "cannot negate string"},
		{"NOT i", "NOT applied to int"},
		{"i AND b", "AND requires booleans, got int and bool"},
		{"i = s", "cannot compare int with string"},
		{"abs(s)", "ABS of string"},
		{"lower(i)", "LOWER of int"},
		{"length(b)", "LENGTH of bool"},
	} {
		stmt, err := sqlparser.Parse("SELECT " + tt.expr + " FROM t")
		if err != nil {
			t.Fatalf("parse %q: %v", tt.expr, err)
		}
		if _, err := Compile(stmt.Select[0].Expr, s); fmt.Sprint(err) != tt.want {
			t.Errorf("Compile(%q): %v, want %q", tt.expr, err, tt.want)
		}
	}
}

func TestAmbiguousAndUnknownColumns(t *testing.T) {
	s := NewSchema(
		Column{Table: "a", Name: "x", Type: TypeInt},
		Column{Table: "b", Name: "x", Type: TypeInt},
	)
	_, err := s.Resolve("", "x")
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("unqualified x: err = %v, want ambiguous", err)
	}
	if idx, err := s.Resolve("b", "x"); err != nil || idx != 1 {
		t.Errorf("b.x = (%d, %v), want (1, nil)", idx, err)
	}
	_, err = s.Resolve("", "zzz")
	if err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("zzz: err = %v, want unknown", err)
	}
}

// inferTypeCases are TestInferType's expressions over testSchema; they
// seed FuzzTypeSound too.
var inferTypeCases = []struct {
	expr string
	want Type
}{
	{"i", TypeInt},
	{"f", TypeFloat},
	{"i + 1", TypeInt},
	{"i + f", TypeFloat},
	{"i / 2", TypeFloat},
	{"i > 1", TypeBool},
	{"i IS NULL", TypeBool},
	{"upper(s)", TypeString},
	{"abs(f)", TypeFloat},
	{"abs(NULL)", TypeNull},
	{"length(NULL)", TypeInt},
	{"CASE WHEN b THEN 1 ELSE 2 END", TypeInt},
}

func TestInferType(t *testing.T) {
	s := testSchema()
	for _, tt := range inferTypeCases {
		stmt, err := sqlparser.Parse("SELECT " + tt.expr + " FROM t")
		if err != nil {
			t.Fatalf("parse: %v", err)
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

// Property: for random int pairs, the compiled arithmetic agrees with Go.
func TestArithmeticProperty(t *testing.T) {
	s := NewSchema(
		Column{Table: "t", Name: "x", Type: TypeInt},
		Column{Table: "t", Name: "y", Type: TypeInt},
	)
	stmt, err := sqlparser.Parse("SELECT x + y, x - y, x * y FROM t")
	if err != nil {
		t.Fatal(err)
	}
	var evs []Evaluator
	for _, item := range stmt.Select {
		ev, err := Compile(item.Expr, s)
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	f := func(x, y int32) bool {
		row := Row{Int(int64(x)), Int(int64(y))}
		add, _ := evs[0](row)
		sub, _ := evs[1](row)
		mul, _ := evs[2](row)
		return add.I == int64(x)+int64(y) &&
			sub.I == int64(x)-int64(y) &&
			mul.I == int64(x)*int64(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
