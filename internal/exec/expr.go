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

// CompilePredicate compiles a condition into a Predicate: Compile's
// evaluator judged by the WHERE rule, under which only a non-NULL TRUE
// passes and any other non-NULL value is an error.
func CompilePredicate(e sqlparser.Expr, s *Schema) (Predicate, error) {
	ev, err := Compile(e, s)
	if err != nil {
		return nil, err
	}
	return func(r Row) (bool, error) {
		v, err := ev(r)
		switch {
		case err != nil:
			return false, err
		case v.T == TypeBool:
			return v.B, nil
		case v.T == TypeNull:
			return false, nil
		}
		return false, fmt.Errorf("predicate evaluated to %s, want bool", v.T)
	}, nil
}

// Compile translates a scalar sqlparser expression into an evaluator bound
// to the given schema: a closure tree returning Values. A comparison or an
// IS [NOT] NULL reads its column and literal operands in place, so testing
// a column against a constant or another column builds no Value but its
// result and allocates nothing. Aggregate function calls are rejected: the planner rewrites them
// into column references of aggregation outputs before any expression
// reaches Compile.
func Compile(e sqlparser.Expr, s *Schema) (Evaluator, error) {
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
		inner, err := Compile(x.X, s)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case sqlparser.OpNeg:
			return func(r Row) (Value, error) {
				v, err := inner(r)
				if err != nil {
					return Value{}, err
				}
				switch v.T {
				case TypeNull:
					return Null(), nil
				case TypeInt:
					return Int(-v.I), nil
				case TypeFloat:
					return Float(-v.F), nil
				default:
					return Value{}, fmt.Errorf("cannot negate %s", v.T)
				}
			}, nil
		case sqlparser.OpNot:
			return func(r Row) (Value, error) {
				v, err := inner(r)
				if err != nil {
					return Value{}, err
				}
				if v.IsNull() {
					return Null(), nil
				}
				if v.T != TypeBool {
					return Value{}, fmt.Errorf("NOT applied to %s", v.T)
				}
				return Bool(!v.B), nil
			}, nil
		default:
			return nil, fmt.Errorf("unknown unary operator")
		}

	case *sqlparser.FuncCall:
		if x.IsAggregate() {
			return nil, fmt.Errorf("aggregate %s not allowed in scalar context", x.Name)
		}
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
		ev, err := Compile(rewritten, s)
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
		inner, err := Compile(x.X, s)
		if err != nil {
			return nil, err
		}
		items := make([]Evaluator, len(x.Items))
		for i, it := range x.Items {
			ev, err := Compile(it, s)
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
			c, err := Compile(w.Cond, s)
			if err != nil {
				return nil, err
			}
			t, err := Compile(w.Then, s)
			if err != nil {
				return nil, err
			}
			arms[i] = arm{c, t}
		}
		var elseEv Evaluator
		if x.Else != nil {
			ev, err := Compile(x.Else, s)
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
				if !cv.IsNull() && cv.T == TypeBool && cv.B {
					return a.then(r)
				}
			}
			if elseEv != nil {
				return elseEv(r)
			}
			return Null(), nil
		}, x, s)

	case *sqlparser.InSubqueryExpr:
		return nil, fmt.Errorf("IN (SELECT ...) is only supported as a top-level WHERE conjunct")

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
	left, err := Compile(x.L, s)
	if err != nil {
		return nil, err
	}
	right, err := Compile(x.R, s)
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
			if lv.T != TypeBool || rv.T != TypeBool {
				return Value{}, fmt.Errorf("AND requires booleans, got %s and %s", lv.T, rv.T)
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
			if lv.T != TypeBool || rv.T != TypeBool {
				return Value{}, fmt.Errorf("OR requires booleans, got %s and %s", lv.T, rv.T)
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
		return arithmetic(op, lv, rv)
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
	ev, err := Compile(e, s)
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

// arithmetic implements +, -, *, /, % with NULL propagation. Integer
// operands stay integral except for division, which always produces a
// float (matching Hive's double division).
func arithmetic(op sqlparser.BinaryOp, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return Value{}, fmt.Errorf("arithmetic on %s and %s", a.T, b.T)
	}
	if op == sqlparser.OpDiv {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		if bf == 0 {
			return Null(), nil // SQL engines raise; NULL keeps pipelines total
		}
		return Float(af / bf), nil
	}
	if a.T == TypeInt && b.T == TypeInt {
		switch op {
		case sqlparser.OpAdd:
			return Int(a.I + b.I), nil
		case sqlparser.OpSub:
			return Int(a.I - b.I), nil
		case sqlparser.OpMul:
			return Int(a.I * b.I), nil
		case sqlparser.OpMod:
			if b.I == 0 {
				return Null(), nil
			}
			return Int(a.I % b.I), nil
		}
	}
	af, _ := a.AsFloat()
	bf, _ := b.AsFloat()
	switch op {
	case sqlparser.OpAdd:
		return Float(af + bf), nil
	case sqlparser.OpSub:
		return Float(af - bf), nil
	case sqlparser.OpMul:
		return Float(af * bf), nil
	case sqlparser.OpMod:
		if bf == 0 {
			return Null(), nil
		}
		return Float(math.Mod(af, bf)), nil
	default:
		return Value{}, fmt.Errorf("not an arithmetic operator: %v", op)
	}
}

// compileScalarFunc supports a handful of non-aggregate helpers.
func compileScalarFunc(x *sqlparser.FuncCall, s *Schema) (Evaluator, error) {
	args := make([]Evaluator, len(x.Args))
	for i, a := range x.Args {
		ev, err := Compile(a, s)
		if err != nil {
			return nil, err
		}
		args[i] = ev
	}
	arity := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s takes %d argument(s), got %d", x.Name, n, len(args))
		}
		return nil
	}
	switch x.Name {
	case "ABS":
		if err := arity(1); err != nil {
			return nil, err
		}
		return func(r Row) (Value, error) {
			v, err := args[0](r)
			if err != nil || v.IsNull() {
				return v, err
			}
			switch v.T {
			case TypeInt:
				if v.I < 0 {
					return Int(-v.I), nil
				}
				return v, nil
			case TypeFloat:
				return Float(math.Abs(v.F)), nil
			default:
				return Value{}, fmt.Errorf("ABS of %s", v.T)
			}
		}, nil
	case "LOWER", "UPPER":
		if err := arity(1); err != nil {
			return nil, err
		}
		upper := x.Name == "UPPER"
		return func(r Row) (Value, error) {
			v, err := args[0](r)
			if err != nil || v.IsNull() {
				return v, err
			}
			if v.T != TypeString {
				return Value{}, fmt.Errorf("%s of %s", x.Name, v.T)
			}
			if upper {
				return Str(strings.ToUpper(v.S)), nil
			}
			return Str(strings.ToLower(v.S)), nil
		}, nil
	case "LENGTH":
		if err := arity(1); err != nil {
			return nil, err
		}
		return func(r Row) (Value, error) {
			v, err := args[0](r)
			if err != nil || v.IsNull() {
				return v, err
			}
			if v.T != TypeString {
				return Value{}, fmt.Errorf("LENGTH of %s", v.T)
			}
			return Int(int64(len(v.S))), nil
		}, nil
	case "COALESCE":
		if len(args) == 0 {
			return nil, fmt.Errorf("COALESCE needs at least one argument")
		}
		return widenArms(func(r Row) (Value, error) {
			for _, a := range args {
				v, err := a(r)
				if err != nil {
					return Value{}, err
				}
				if !v.IsNull() {
					return v, nil
				}
			}
			return Null(), nil
		}, x, s)
	default:
		return nil, fmt.Errorf("unknown function %s", x.Name)
	}
}

// InferType predicts the runtime type of an expression against a schema.
// It mirrors the evaluator's promotion rules and is used to type derived
// schemas. NULL literals infer as TypeNull.
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
		if x.Op == sqlparser.OpAnd || x.Op == sqlparser.OpOr || x.Op.IsComparison() {
			return TypeBool, nil
		}
		lt, err := InferType(x.L, s)
		if err != nil {
			return 0, err
		}
		rt, err := InferType(x.R, s)
		if err != nil {
			return 0, err
		}
		if x.Op == sqlparser.OpDiv {
			return TypeFloat, nil
		}
		if lt == TypeFloat || rt == TypeFloat {
			return TypeFloat, nil
		}
		return TypeInt, nil
	case *sqlparser.UnaryExpr:
		if x.Op == sqlparser.OpNot {
			return TypeBool, nil
		}
		return InferType(x.X, s)
	case *sqlparser.FuncCall:
		switch x.Name {
		case "COUNT", "LENGTH":
			return TypeInt, nil
		case "AVG":
			return TypeFloat, nil
		case "SUM", "MIN", "MAX", "ABS":
			if x.Star || len(x.Args) == 0 {
				return TypeInt, nil
			}
			return InferType(x.Args[0], s)
		case "COALESCE":
			return armsType("COALESCE", x.Args, s)
		case "LOWER", "UPPER":
			return TypeString, nil
		default:
			return 0, fmt.Errorf("unknown function %s", x.Name)
		}
	case *sqlparser.IsNullExpr, *sqlparser.BetweenExpr, *sqlparser.InListExpr, *sqlparser.InSubqueryExpr:
		return TypeBool, nil
	case *sqlparser.CaseExpr:
		arms := make([]sqlparser.Expr, 0, len(x.Whens)+1)
		for _, w := range x.Whens {
			arms = append(arms, w.Then)
		}
		if x.Else != nil {
			arms = append(arms, x.Else)
		}
		return armsType("CASE", arms, s)
	default:
		return 0, fmt.Errorf("cannot infer type of %T", e)
	}
}

// armsType types a CASE from its THEN and ELSE arms, or a COALESCE (what)
// from its arguments: the arms that can be non-NULL must share one type,
// except that INT arms mixed with FLOAT ones make it FLOAT (Compile widens
// the INT results to match, see widenArms). Any other mix is an error, as
// in PostgreSQL.
func armsType(what string, arms []sqlparser.Expr, s *Schema) (Type, error) {
	t := TypeNull
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
