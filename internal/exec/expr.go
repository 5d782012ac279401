package exec

import (
	"fmt"
	"math"
	"strings"

	"ysmart/internal/sqlparser"
)

// Evaluator computes a value from a row. Compiled evaluators never mutate
// the row and are safe for concurrent use.
type Evaluator func(Row) (Value, error)

// Predicate reports whether a row passes a selection, join residual or
// WHERE condition.
type Predicate func(Row) (bool, error)

// CompilePredicate compiles a condition into a Predicate that passes a
// row only when the condition is TRUE, as WHERE does: FALSE and NULL fail
// it. It refuses what CheckCondition refuses, so the predicate never meets
// a value that is not BOOL or NULL.
func CompilePredicate(e sqlparser.Expr, s *Schema) (Predicate, error) {
	if err := CheckCondition(e, s); err != nil {
		return nil, err
	}
	ev, err := compile(e, s)
	if err != nil {
		return nil, err
	}
	return func(r Row) (bool, error) {
		v, err := ev(r)
		return v.T == TypeBool && v.B, err
	}, nil
}

// Compile translates a scalar sqlparser expression into an evaluator bound
// to the given schema: a closure tree returning Values. Compile refuses
// exactly what InferType refuses — unknown columns and functions, ill-typed
// operands, aggregate calls (the planner replaces each with a column of its
// aggregation) and IN-subqueries — by running it once, here, and builds
// everything InferType accepts. The evaluators assume that well-typed
// expression and rows whose values have their schema columns' types or are
// NULL, so they check no type per row. A comparison or an IS [NOT] NULL
// reads its column and literal operands in place, so testing a column
// against a constant or another column builds no Value but its result and
// allocates nothing.
func Compile(e sqlparser.Expr, s *Schema) (Evaluator, error) {
	if _, err := InferType(e, s); err != nil {
		return nil, err
	}
	return compile(e, s)
}

// compile is Compile below its type check.
func compile(e sqlparser.Expr, s *Schema) (Evaluator, error) {
	switch x := e.(type) {
	case *sqlparser.ColumnRef:
		idx, err := s.Resolve(x.Qualifier, x.Name)
		if err != nil {
			return nil, err
		}
		return func(r Row) (Value, error) {
			if idx >= len(r) {
				return Value{}, fmt.Errorf("row too short: index %d, len %d", idx, len(r))
			}
			return r[idx], nil
		}, nil

	case *sqlparser.Literal:
		v := literalValue(x)
		return func(Row) (Value, error) { return v, nil }, nil

	case *sqlparser.BinaryExpr:
		return compileBinary(x, s)

	case *sqlparser.UnaryExpr:
		inner, err := compile(x.X, s)
		if err != nil {
			return nil, err
		}
		not := x.Op == sqlparser.OpNot
		return func(r Row) (Value, error) {
			v, err := inner(r)
			switch {
			case err != nil || v.IsNull():
				return v, err
			case not:
				return Bool(!v.B), nil
			case v.T == TypeInt:
				return Int(-v.I), nil
			}
			return Float(-v.F), nil
		}, nil

	case *sqlparser.FuncCall:
		return compileScalarFunc(x, s)

	case *sqlparser.IsNullExpr:
		o, err := compileOperand(x.X, s)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(r Row) (Value, error) {
			var tmp Value
			v, err := o.get(r, &tmp)
			if err != nil {
				return Value{}, err
			}
			return Bool(v.IsNull() != not), nil
		}, nil

	case *sqlparser.BetweenExpr:
		// x BETWEEN lo AND hi  ==  x >= lo AND x <= hi (three-valued).
		rewritten := &sqlparser.BinaryExpr{
			Op: sqlparser.OpAnd,
			L:  &sqlparser.BinaryExpr{Op: sqlparser.OpGe, L: x.X, R: x.Lo},
			R:  &sqlparser.BinaryExpr{Op: sqlparser.OpLe, L: x.X, R: x.Hi},
		}
		ev, err := compile(rewritten, s)
		if err != nil {
			return nil, err
		}
		if !x.Not {
			return ev, nil
		}
		return func(r Row) (Value, error) {
			v, err := ev(r)
			if err != nil || v.IsNull() {
				return v, err
			}
			return Bool(!v.B), nil
		}, nil

	case *sqlparser.InListExpr:
		inner, err := compile(x.X, s)
		if err != nil {
			return nil, err
		}
		items := make([]Evaluator, len(x.Items))
		for i, it := range x.Items {
			ev, err := compile(it, s)
			if err != nil {
				return nil, err
			}
			items[i] = ev
		}
		not := x.Not
		return func(r Row) (Value, error) {
			v, err := inner(r)
			if err != nil {
				return Value{}, err
			}
			if v.IsNull() {
				return Null(), nil
			}
			sawNull := false
			for _, item := range items {
				iv, err := item(r)
				if err != nil {
					return Value{}, err
				}
				if iv.IsNull() {
					sawNull = true
					continue
				}
				eq, err := compareValues(sqlparser.OpEq, v, iv)
				if err != nil {
					return Value{}, err
				}
				if !eq.IsNull() && eq.B {
					return Bool(!not), nil
				}
			}
			if sawNull {
				return Null(), nil
			}
			return Bool(not), nil
		}, nil

	case *sqlparser.CaseExpr:
		type arm struct{ cond, then Evaluator }
		arms := make([]arm, len(x.Whens))
		for i, w := range x.Whens {
			c, err := compile(w.Cond, s)
			if err != nil {
				return nil, err
			}
			t, err := compile(w.Then, s)
			if err != nil {
				return nil, err
			}
			arms[i] = arm{c, t}
		}
		var elseEv Evaluator
		if x.Else != nil {
			ev, err := compile(x.Else, s)
			if err != nil {
				return nil, err
			}
			elseEv = ev
		}
		return widenArms(func(r Row) (Value, error) {
			for _, a := range arms {
				cv, err := a.cond(r)
				if err != nil {
					return Value{}, err
				}
				if cv.T == TypeBool && cv.B {
					return a.then(r)
				}
			}
			if elseEv != nil {
				return elseEv(r)
			}
			return Null(), nil
		}, x, s)

	default:
		return nil, fmt.Errorf("cannot compile expression %T", e)
	}
}

func literalValue(l *sqlparser.Literal) Value {
	switch l.Kind {
	case sqlparser.LitInt:
		return Int(l.Int)
	case sqlparser.LitFloat:
		return Float(l.Float)
	case sqlparser.LitString:
		return Str(l.Str)
	case sqlparser.LitBool:
		return Bool(l.Bool)
	default:
		return Null()
	}
}

func compileBinary(x *sqlparser.BinaryExpr, s *Schema) (Evaluator, error) {
	if x.Op.IsComparison() {
		return compileComparison(x.Op, x.L, x.R, s)
	}
	left, err := compile(x.L, s)
	if err != nil {
		return nil, err
	}
	right, err := compile(x.R, s)
	if err != nil {
		return nil, err
	}
	op := x.Op

	switch op {
	case sqlparser.OpAnd:
		return func(r Row) (Value, error) {
			lv, err := left(r)
			if err != nil {
				return Value{}, err
			}
			// Three-valued AND with short circuit on FALSE.
			if lv.T == TypeBool && !lv.B {
				return Bool(false), nil
			}
			rv, err := right(r)
			if err != nil {
				return Value{}, err
			}
			if rv.T == TypeBool && !rv.B {
				return Bool(false), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return Null(), nil
			}
			return Bool(true), nil
		}, nil
	case sqlparser.OpOr:
		return func(r Row) (Value, error) {
			lv, err := left(r)
			if err != nil {
				return Value{}, err
			}
			if lv.T == TypeBool && lv.B {
				return Bool(true), nil
			}
			rv, err := right(r)
			if err != nil {
				return Value{}, err
			}
			if rv.T == TypeBool && rv.B {
				return Bool(true), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return Null(), nil
			}
			return Bool(false), nil
		}, nil
	}

	return func(r Row) (Value, error) {
		lv, err := left(r)
		if err != nil {
			return Value{}, err
		}
		rv, err := right(r)
		if err != nil {
			return Value{}, err
		}
		return arithmetic(op, lv, rv), nil
	}, nil
}

// operand is one side of a comparison, resolved at compile time: a column
// read in place, a constant, or — any other expression — its evaluator.
type operand struct {
	col int // column position, or -1
	c   Value
	ev  Evaluator
}

func compileOperand(e sqlparser.Expr, s *Schema) (operand, error) {
	switch x := e.(type) {
	case *sqlparser.ColumnRef:
		idx, err := s.Resolve(x.Qualifier, x.Name)
		return operand{col: idx}, err
	case *sqlparser.Literal:
		return operand{col: -1, c: literalValue(x)}, nil
	}
	ev, err := compile(e, s)
	return operand{col: -1, ev: ev}, err
}

// get returns the operand's value for r: in place for a column or a
// constant, through *tmp for an evaluated expression.
func (o *operand) get(r Row, tmp *Value) (*Value, error) {
	switch {
	case o.col >= 0:
		if o.col >= len(r) {
			return nil, fmt.Errorf("row too short: index %d, len %d", o.col, len(r))
		}
		return &r[o.col], nil
	case o.ev != nil:
		v, err := o.ev(r)
		*tmp = v
		return tmp, err
	}
	return &o.c, nil
}

// outcomes is a comparison operator's result for the comparison results
// -1, 0 and +1.
type outcomes [3]bool

func outcomesOf(op sqlparser.BinaryOp) outcomes {
	var o outcomes
	for c := -1; c <= 1; c++ {
		v, _ := compareValues(op, Int(int64(c)), Int(0))
		o[c+1] = v.B
	}
	return o
}

// comparison is a compiled comparison. Its evaluator points to it, so the
// node costs two allocations, not one per value the evaluator reads by
// address.
type comparison struct {
	left, right operand
	op          sqlparser.BinaryOp
	want        outcomes
}

func compileComparison(op sqlparser.BinaryOp, le, re sqlparser.Expr, s *Schema) (Evaluator, error) {
	c := &comparison{op: op, want: outcomesOf(op)}
	var err error
	if c.left, err = compileOperand(le, s); err != nil {
		return nil, err
	}
	if c.right, err = compileOperand(re, s); err != nil {
		return nil, err
	}
	return func(r Row) (Value, error) {
		var lv, rv Value
		a, err := c.left.get(r, &lv)
		if err != nil {
			return Value{}, err
		}
		b, err := c.right.get(r, &rv)
		if err != nil {
			return Value{}, err
		}
		return c.compare(a, b)
	}, nil
}

// compare is compareValues over operands read in place: same-typed ints,
// floats and strings compare without copying either Value; any other
// pairing — NULLs, mixed numerics, bools, a type mismatch and its error —
// is compareValues'.
func (c *comparison) compare(a, b *Value) (Value, error) {
	want := &c.want
	if a.T == b.T {
		switch a.T {
		case TypeInt:
			switch {
			case a.I < b.I:
				return Bool(want[0]), nil
			case a.I > b.I:
				return Bool(want[2]), nil
			}
			return Bool(want[1]), nil
		case TypeFloat:
			return Bool(want[compareFloat(a.F, b.F)+1]), nil
		case TypeString:
			return Bool(want[strings.Compare(a.S, b.S)+1]), nil
		}
	}
	return compareValues(c.op, *a, *b)
}

// compareValues implements SQL comparison with three-valued logic: any NULL
// operand yields NULL.
func compareValues(op sqlparser.BinaryOp, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	var c int
	switch {
	case a.IsNumeric() && b.IsNumeric():
		c = Compare(a, b)
	case a.T == b.T:
		c = Compare(a, b)
	default:
		return Value{}, fmt.Errorf("cannot compare %s with %s", a.T, b.T)
	}
	switch op {
	case sqlparser.OpEq:
		return Bool(c == 0), nil
	case sqlparser.OpNe:
		return Bool(c != 0), nil
	case sqlparser.OpLt:
		return Bool(c < 0), nil
	case sqlparser.OpLe:
		return Bool(c <= 0), nil
	case sqlparser.OpGt:
		return Bool(c > 0), nil
	case sqlparser.OpGe:
		return Bool(c >= 0), nil
	default:
		return Value{}, fmt.Errorf("not a comparison operator: %v", op)
	}
}

// arithmetic implements +, -, *, /, % on numbers with NULL propagation.
// Integer operands stay integral except for division, which always
// produces a float (matching Hive's double division).
func arithmetic(op sqlparser.BinaryOp, a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null()
	}
	if op == sqlparser.OpDiv {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		if bf == 0 {
			return Null() // SQL engines raise; NULL keeps pipelines total
		}
		return Float(af / bf)
	}
	if a.T == TypeInt && b.T == TypeInt {
		switch op {
		case sqlparser.OpAdd:
			return Int(a.I + b.I)
		case sqlparser.OpSub:
			return Int(a.I - b.I)
		case sqlparser.OpMul:
			return Int(a.I * b.I)
		}
		if b.I == 0 {
			return Null()
		}
		return Int(a.I % b.I)
	}
	af, _ := a.AsFloat()
	bf, _ := b.AsFloat()
	switch op {
	case sqlparser.OpAdd:
		return Float(af + bf)
	case sqlparser.OpSub:
		return Float(af - bf)
	case sqlparser.OpMul:
		return Float(af * bf)
	}
	if bf == 0 {
		return Null()
	}
	return Float(math.Mod(af, bf))
}

// scalarFunc is the signature of a one-argument scalar function, with its
// body: InferType checks a call against it and compileScalarFunc builds the
// call from it. A NULL argument yields NULL without reaching apply.
type scalarFunc struct {
	takes  func(Type) bool // the argument types it accepts, NULL included
	result Type            // its result type, or TypeNull for its argument's
	apply  func(Value) Value
}

// scalarFuncs holds every scalar function but COALESCE, which takes one or
// more arguments and is typed by armsType.
var scalarFuncs = map[string]scalarFunc{
	"ABS": {numericOrNull, TypeNull, func(v Value) Value {
		if v.T == TypeFloat {
			return Float(math.Abs(v.F))
		}
		if v.I < 0 {
			return Int(-v.I)
		}
		return v
	}},
	"LOWER":  {stringOrNull, TypeString, func(v Value) Value { return Str(strings.ToLower(v.S)) }},
	"UPPER":  {stringOrNull, TypeString, func(v Value) Value { return Str(strings.ToUpper(v.S)) }},
	"LENGTH": {stringOrNull, TypeInt, func(v Value) Value { return Int(int64(len(v.S))) }},
}

// compileScalarFunc builds a call InferType accepted: COALESCE or one of
// scalarFuncs.
func compileScalarFunc(x *sqlparser.FuncCall, s *Schema) (Evaluator, error) {
	args := make([]Evaluator, len(x.Args))
	for i, a := range x.Args {
		ev, err := compile(a, s)
		if err != nil {
			return nil, err
		}
		args[i] = ev
	}
	if x.Name == "COALESCE" {
		return widenArms(func(r Row) (Value, error) {
			for _, a := range args {
				v, err := a(r)
				if err != nil || !v.IsNull() {
					return v, err
				}
			}
			return Null(), nil
		}, x, s)
	}
	arg, apply := args[0], scalarFuncs[x.Name].apply
	return func(r Row) (Value, error) {
		v, err := arg(r)
		if err != nil || v.IsNull() {
			return v, err
		}
		return apply(v), nil
	}, nil
}

// InferType predicts the runtime type of an expression against a schema,
// and holds every SQL type rule: what it refuses is an error while
// planning, as in PostgreSQL, and Compile refuses it too. It refuses an
// unknown column or function; a call whose arity or argument type its
// signature (scalarFuncs, COALESCE) refuses, or that says DISTINCT;
// arithmetic or unary minus on an operand that is neither numeric nor
// NULL; a comparison (also inside IN and BETWEEN) of types compareValues
// cannot compare; AND, OR, NOT or a CASE WHEN condition on an operand that
// is neither BOOL nor NULL; CASE or COALESCE arms that do not unify; an
// aggregate call, which is never scalar (AggKind.ResultType types
// aggregates); and an IN-subquery, which the planner takes only as a whole
// WHERE conjunct. NULL literals infer as TypeNull.
func InferType(e sqlparser.Expr, s *Schema) (Type, error) {
	switch x := e.(type) {
	case *sqlparser.ColumnRef:
		idx, err := s.Resolve(x.Qualifier, x.Name)
		if err != nil {
			return 0, err
		}
		return s.Cols[idx].Type, nil
	case *sqlparser.Literal:
		switch x.Kind {
		case sqlparser.LitInt:
			return TypeInt, nil
		case sqlparser.LitFloat:
			return TypeFloat, nil
		case sqlparser.LitString:
			return TypeString, nil
		case sqlparser.LitBool:
			return TypeBool, nil
		default:
			return TypeNull, nil
		}
	case *sqlparser.BinaryExpr:
		lt, err := InferType(x.L, s)
		if err != nil {
			return 0, err
		}
		rt, err := InferType(x.R, s)
		if err != nil {
			return 0, err
		}
		switch {
		case x.Op == sqlparser.OpAnd || x.Op == sqlparser.OpOr:
			if !boolOrNull(lt) || !boolOrNull(rt) {
				return 0, fmt.Errorf("%s requires booleans, got %s and %s", x.Op, lt, rt)
			}
			return TypeBool, nil
		case x.Op.IsComparison():
			return TypeBool, comparable(lt, rt)
		}
		if !numericOrNull(lt) || !numericOrNull(rt) {
			return 0, fmt.Errorf("arithmetic on %s and %s", lt, rt)
		}
		if x.Op == sqlparser.OpDiv {
			return TypeFloat, nil
		}
		if lt == TypeFloat || rt == TypeFloat {
			return TypeFloat, nil
		}
		return TypeInt, nil
	case *sqlparser.UnaryExpr:
		t, err := InferType(x.X, s)
		if err != nil {
			return 0, err
		}
		if x.Op == sqlparser.OpNot {
			if !boolOrNull(t) {
				return 0, fmt.Errorf("NOT applied to %s", t)
			}
			return TypeBool, nil
		}
		if !numericOrNull(t) {
			return 0, fmt.Errorf("cannot negate %s", t)
		}
		return t, nil
	case *sqlparser.FuncCall:
		f, ok := scalarFuncs[x.Name]
		switch {
		case x.IsAggregate():
			return 0, fmt.Errorf("aggregate %s is not allowed here", x.Name)
		case x.Distinct:
			return 0, fmt.Errorf("DISTINCT specified, but %s is not an aggregate function", x.Name)
		case x.Name == "COALESCE" && len(x.Args) == 0:
			return 0, fmt.Errorf("COALESCE needs at least one argument")
		case x.Name == "COALESCE":
			return armsType("COALESCE", TypeNull, x.Args, s)
		case !ok:
			return 0, fmt.Errorf("unknown function %s", x.Name)
		case len(x.Args) != 1:
			return 0, fmt.Errorf("%s takes 1 argument(s), got %d", x.Name, len(x.Args))
		}
		t, err := InferType(x.Args[0], s)
		switch {
		case err != nil:
			return 0, err
		case !f.takes(t):
			return 0, fmt.Errorf("%s of %s", x.Name, t)
		case f.result == TypeNull:
			return t, nil
		}
		return f.result, nil
	case *sqlparser.IsNullExpr:
		_, err := InferType(x.X, s)
		return TypeBool, err
	case *sqlparser.BetweenExpr:
		return TypeBool, comparableAll(x.X, []sqlparser.Expr{x.Lo, x.Hi}, s)
	case *sqlparser.InListExpr:
		return TypeBool, comparableAll(x.X, x.Items, s)
	case *sqlparser.InSubqueryExpr:
		return 0, fmt.Errorf("IN (SELECT ...) is only supported as a top-level WHERE conjunct")
	case *sqlparser.CaseExpr:
		t := TypeNull
		for _, w := range x.Whens {
			ct, err := InferType(w.Cond, s)
			if err != nil {
				return 0, err
			}
			if !boolOrNull(ct) {
				return 0, fmt.Errorf("CASE WHEN condition is %s, not bool", ct)
			}
			if t, err = armsType("CASE", t, []sqlparser.Expr{w.Then}, s); err != nil {
				return 0, err
			}
		}
		if x.Else == nil {
			return t, nil
		}
		return armsType("CASE", t, []sqlparser.Expr{x.Else}, s)
	default:
		return 0, fmt.Errorf("cannot infer type of %T", e)
	}
}

// CheckCondition types a condition — a WHERE conjunct, an ON residual, a
// HAVING clause or what CompilePredicate compiles — against s: InferType
// must accept it and type it BOOL or NULL, as PostgreSQL requires of a
// condition while planning.
func CheckCondition(cond sqlparser.Expr, s *Schema) error {
	t, err := InferType(cond, s)
	if err == nil && !boolOrNull(t) {
		err = fmt.Errorf("condition is %s, not bool", t)
	}
	return err
}

// numericOrNull reports whether arithmetic accepts operands of type t:
// INT and FLOAT compute, and NULL propagates.
func numericOrNull(t Type) bool { return t == TypeInt || t == TypeFloat || t == TypeNull }

// stringOrNull reports whether LOWER, UPPER and LENGTH accept an argument
// of type t.
func stringOrNull(t Type) bool { return t == TypeString || t == TypeNull }

// boolOrNull reports whether AND, OR, NOT and CASE WHEN accept an operand
// of type t.
func boolOrNull(t Type) bool { return t == TypeBool || t == TypeNull }

// comparable is compareValues' rule applied to types: NULL compares with
// anything, numbers with numbers, and any other type only with itself.
func comparable(a, b Type) error {
	if a == TypeNull || b == TypeNull || numericOrNull(a) && numericOrNull(b) || a == b {
		return nil
	}
	return fmt.Errorf("cannot compare %s with %s", a, b)
}

// comparableAll types x and each of items (IN's list, BETWEEN's bounds)
// and requires x to compare with every one.
func comparableAll(x sqlparser.Expr, items []sqlparser.Expr, s *Schema) error {
	xt, err := InferType(x, s)
	if err != nil {
		return err
	}
	for _, it := range items {
		t, err := InferType(it, s)
		if err != nil {
			return err
		}
		if err := comparable(xt, t); err != nil {
			return err
		}
	}
	return nil
}

// armsType types a CASE from its THEN and ELSE arms, or a COALESCE (what)
// from its arguments, given t, the type of the arms before these: the arms
// that can be non-NULL must share one type, except that INT arms mixed
// with FLOAT ones make it FLOAT (Compile widens the INT results to match,
// see widenArms). Any other mix is an error, as in PostgreSQL.
func armsType(what string, t Type, arms []sqlparser.Expr, s *Schema) (Type, error) {
	for _, a := range arms {
		at, err := InferType(a, s)
		if err != nil {
			return 0, err
		}
		switch {
		case at == TypeNull || at == t || t == TypeFloat && at == TypeInt:
		case t == TypeNull || t == TypeInt && at == TypeFloat:
			t = at
		default:
			return 0, fmt.Errorf("%s types %s and %s cannot be matched", what, t, at)
		}
	}
	return t, nil
}

// widenArms returns ev, the evaluator of the CASE or COALESCE e, converting
// its INT results to FLOAT when armsType types e FLOAT, so every row carries
// the type its schema column declares.
func widenArms(ev Evaluator, e sqlparser.Expr, s *Schema) (Evaluator, error) {
	t, err := InferType(e, s)
	if err != nil || t != TypeFloat {
		return ev, err
	}
	return func(r Row) (Value, error) {
		v, err := ev(r)
		if err == nil && v.T == TypeInt {
			v = Float(float64(v.I))
		}
		return v, err
	}, nil
}
