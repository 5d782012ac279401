package exec

import (
	"fmt"
	"strings"

	"ysmart/internal/sqlparser"
)

// A compiled predicate is a tree of closures over three-valued truth
// rather than over Values: AND, OR, the comparisons and IS [NOT] NULL — all
// the workload's predicates are made of — are nodes of their own, and
// column and literal operands are read in place, so a comparison of a
// column with a constant builds no Value and makes no call beyond its own.
// Everything else (NOT, BETWEEN, IN, ...) is the generic
// evaluator (Compile) with its value mapped to a truth, which keeps the
// semantics — NULLs, short circuits, error texts — exactly the generic
// evaluator's followed by the WHERE rule that only a non-NULL TRUE passes.

// truth is what a predicate node yields: FALSE, TRUE or NULL — or, only
// from a node wrapping the generic evaluator, a non-boolean value, of
// which the type is kept (as nonBool + its Type) so that AND, OR and the
// root word their errors exactly as the generic path does.
type truth uint8

const (
	isFalse truth = iota
	isTrue
	isNull
	nonBool
)

func truthOf(v Value) truth {
	switch v.T {
	case TypeBool:
		if v.B {
			return isTrue
		}
		return isFalse
	case TypeNull:
		return isNull
	default:
		return nonBool + truth(v.T)
	}
}

// typ is the type of the value the truth stands for.
func (t truth) typ() Type {
	switch t {
	case isFalse, isTrue:
		return TypeBool
	case isNull:
		return TypeNull
	default:
		return Type(t - nonBool)
	}
}

type predNode func(Row) (truth, error)

// CompilePredicate compiles a selection, join residual or WHERE condition
// into a function that reports whether a row passes. Only a non-NULL TRUE
// passes; a non-boolean result is an error. Compile errors, results and
// run-time error texts are those of Compile's evaluator judged by that
// rule, which stays the reference (FuzzCompilePredicate holds the two
// equal).
//
// Comparisons dispatch on the operands' run-time types, never on the
// schema's: a column the plan could not type (TypeNull) is decoded by its
// text, row by row an int, a string or a bool, and the generic evaluator
// mixes types too, so a comparison typed at compile time would be wrong on
// them. Same-typed ints, floats and strings compare in place; every other
// pairing goes through the generic comparison.
func CompilePredicate(e sqlparser.Expr, s *Schema) (func(Row) (bool, error), error) {
	node, err := compileTruth(e, s)
	if err != nil {
		return nil, err
	}
	return func(r Row) (bool, error) {
		t, err := node(r)
		switch {
		case err != nil:
			return false, err
		case t == isTrue:
			return true, nil
		case t == isFalse, t == isNull:
			return false, nil
		default:
			return false, fmt.Errorf("predicate evaluated to %s, want bool", t.typ())
		}
	}, nil
}

// compileTruth compiles e into a truth node. It compiles subexpressions in
// the order Compile does, so a failing expression reports Compile's error.
func compileTruth(e sqlparser.Expr, s *Schema) (predNode, error) {
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		switch {
		case x.Op == sqlparser.OpAnd || x.Op == sqlparser.OpOr:
			left, err := compileTruth(x.L, s)
			if err != nil {
				return nil, err
			}
			right, err := compileTruth(x.R, s)
			if err != nil {
				return nil, err
			}
			if x.Op == sqlparser.OpAnd {
				return andNode(left, right), nil
			}
			return orNode(left, right), nil
		case x.Op.IsComparison():
			return compileComparison(x.Op, x.L, x.R, s)
		}
	case *sqlparser.IsNullExpr:
		o, err := compileOperand(x.X, s)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(r Row) (truth, error) {
			var tmp Value
			v, err := o.get(r, &tmp)
			if err != nil {
				return 0, err
			}
			return truthOfBool(v.IsNull() != not), nil
		}, nil
	}
	ev, err := Compile(e, s)
	if err != nil {
		return nil, err
	}
	return func(r Row) (truth, error) {
		v, err := ev(r)
		return truthOf(v), err
	}, nil
}

func truthOfBool(b bool) truth {
	if b {
		return isTrue
	}
	return isFalse
}

// andNode is three-valued AND with Compile's order: the right side runs
// unless the left is FALSE, so its error surfaces after a NULL left.
func andNode(left, right predNode) predNode {
	return func(r Row) (truth, error) {
		l, err := left(r)
		if err != nil {
			return 0, err
		}
		if l == isFalse {
			return isFalse, nil
		}
		rt, err := right(r)
		switch {
		case err != nil:
			return 0, err
		case rt == isFalse:
			return isFalse, nil
		case l == isNull || rt == isNull:
			return isNull, nil
		case l != isTrue || rt != isTrue:
			return 0, fmt.Errorf("AND requires booleans, got %s and %s", l.typ(), rt.typ())
		}
		return isTrue, nil
	}
}

// orNode is AND's dual: the right side runs unless the left is TRUE.
func orNode(left, right predNode) predNode {
	return func(r Row) (truth, error) {
		l, err := left(r)
		if err != nil {
			return 0, err
		}
		if l == isTrue {
			return isTrue, nil
		}
		rt, err := right(r)
		switch {
		case err != nil:
			return 0, err
		case rt == isTrue:
			return isTrue, nil
		case l == isNull || rt == isNull:
			return isNull, nil
		case l != isFalse || rt != isFalse:
			return 0, fmt.Errorf("OR requires booleans, got %s and %s", l.typ(), rt.typ())
		}
		return isFalse, nil
	}
}

// operand is one side of a comparison, resolved at compile time: a column
// read in place, a constant, or — any other expression — the generic
// evaluator.
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

// outcomes is a comparison operator's truth for the comparison results
// -1, 0 and +1.
type outcomes [3]truth

func outcomesOf(op sqlparser.BinaryOp) outcomes {
	var o outcomes
	for c := -1; c <= 1; c++ {
		v, _ := compareValues(op, Int(int64(c)), Int(0))
		o[c+1] = truthOf(v)
	}
	return o
}

func compileComparison(op sqlparser.BinaryOp, le, re sqlparser.Expr, s *Schema) (predNode, error) {
	l, err := compileOperand(le, s)
	if err != nil {
		return nil, err
	}
	rt, err := compileOperand(re, s)
	if err != nil {
		return nil, err
	}
	want := outcomesOf(op)
	return func(r Row) (truth, error) {
		var lv, rv Value
		a, err := l.get(r, &lv)
		if err != nil {
			return 0, err
		}
		b, err := rt.get(r, &rv)
		if err != nil {
			return 0, err
		}
		return compare(op, &want, a, b)
	}, nil
}

// compare is compareValues as a truth: same-typed ints, floats and strings
// compare in place (floats as Compare orders them, NaN equal to
// everything); any other pairing — NULLs, mixed numerics, bools, a type
// mismatch and its error — is compareValues'.
func compare(op sqlparser.BinaryOp, want *outcomes, a, b *Value) (truth, error) {
	if a.T == b.T {
		switch a.T {
		case TypeInt:
			switch {
			case a.I < b.I:
				return want[0], nil
			case a.I > b.I:
				return want[2], nil
			}
			return want[1], nil
		case TypeFloat:
			return want[compareFloat(a.F, b.F)+1], nil
		case TypeString:
			return want[strings.Compare(a.S, b.S)+1], nil
		}
	}
	v, err := compareValues(op, *a, *b)
	return truthOf(v), err
}
