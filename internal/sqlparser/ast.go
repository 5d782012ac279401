package sqlparser

import (
	"fmt"
	"strconv"
	"strings"
)

// Node is implemented by every AST node.
type Node interface {
	// SQL renders the node back to SQL text (normalized spelling).
	SQL() string
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// SelectStmt is a (possibly nested) SELECT statement.
type SelectStmt struct {
	Distinct bool
	Select   []SelectItem
	From     []TableRef // cross product of the listed refs; join predicates may live in Where
	Where    Expr       // nil if absent
	GroupBy  []Expr
	Having   Expr // nil if absent
	OrderBy  []OrderItem
	Limit    int // -1 if absent
}

// SelectItem is one output column of a SELECT list.
type SelectItem struct {
	// Star is true for a bare `*` (Expr is nil in that case).
	Star bool
	// StarQualifier is set for `t.*`.
	StarQualifier string
	Expr          Expr
	Alias         string // "" if none
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SQL implements Node.
func (s *SelectStmt) SQL() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Select {
		if i > 0 {
			sb.WriteString(", ")
		}
		switch {
		case it.Star && it.StarQualifier != "":
			sb.WriteString(it.StarQualifier + ".*")
		case it.Star:
			sb.WriteString("*")
		default:
			sb.WriteString(it.Expr.SQL())
			if it.Alias != "" {
				sb.WriteString(" AS " + it.Alias)
			}
		}
	}
	if len(s.From) > 0 {
		sb.WriteString(" FROM ")
		for i, tr := range s.From {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(tr.SQL())
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.SQL())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, e := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.SQL())
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.SQL())
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.Expr.SQL())
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		sb.WriteString(" LIMIT " + strconv.Itoa(s.Limit))
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Table references
// ---------------------------------------------------------------------------

// TableRef is a FROM-clause item: a base table, a derived table, or a join.
type TableRef interface {
	Node
	tableRef()
}

// BaseTable references a named table, optionally aliased.
type BaseTable struct {
	Name  string
	Alias string
}

func (*BaseTable) tableRef() {}

// SQL implements Node.
func (t *BaseTable) SQL() string {
	if t.Alias != "" && !strings.EqualFold(t.Alias, t.Name) {
		return t.Name + " AS " + t.Alias
	}
	return t.Name
}

// Binding returns the name the table is known by in scope (alias if set).
func (t *BaseTable) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// Subquery is a derived table: (SELECT ...) AS alias.
type Subquery struct {
	Select *SelectStmt
	Alias  string
}

func (*Subquery) tableRef() {}

// SQL implements Node.
func (t *Subquery) SQL() string {
	return "(" + t.Select.SQL() + ") AS " + t.Alias
}

// JoinType enumerates explicit join flavors.
type JoinType int

// Join flavors. Implicit comma joins never construct a Join node; they stay
// as multiple From items.
const (
	InnerJoin JoinType = iota + 1
	LeftOuterJoin
	RightOuterJoin
	FullOuterJoin
	CrossJoin
)

func (jt JoinType) String() string {
	switch jt {
	case InnerJoin:
		return "JOIN"
	case LeftOuterJoin:
		return "LEFT OUTER JOIN"
	case RightOuterJoin:
		return "RIGHT OUTER JOIN"
	case FullOuterJoin:
		return "FULL OUTER JOIN"
	case CrossJoin:
		return "CROSS JOIN"
	default:
		return fmt.Sprintf("JoinType(%d)", int(jt))
	}
}

// Join is an explicit JOIN ... ON table reference.
type Join struct {
	Type  JoinType
	Left  TableRef
	Right TableRef
	On    Expr // nil for CROSS JOIN
}

func (*Join) tableRef() {}

// SQL implements Node.
func (t *Join) SQL() string {
	s := t.Left.SQL() + " " + t.Type.String() + " " + t.Right.SQL()
	if t.On != nil {
		s += " ON " + t.On.SQL()
	}
	return s
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// Expr is implemented by every expression node.
type Expr interface {
	Node
	expr()
}

// ColumnRef names a column, optionally qualified by a table binding.
type ColumnRef struct {
	Qualifier string // "" if unqualified
	Name      string
}

func (*ColumnRef) expr() {}

// SQL implements Node.
func (e *ColumnRef) SQL() string {
	if e.Qualifier != "" {
		return e.Qualifier + "." + e.Name
	}
	return e.Name
}

// LiteralKind identifies the type of a literal.
type LiteralKind int

// Literal kinds.
const (
	LitInt LiteralKind = iota + 1
	LitFloat
	LitString
	LitBool
	LitNull
)

// Literal is a constant.
type Literal struct {
	Kind  LiteralKind
	Int   int64
	Float float64
	Str   string
	Bool  bool
}

func (*Literal) expr() {}

// SQL implements Node.
func (e *Literal) SQL() string {
	switch e.Kind {
	case LitInt:
		return strconv.FormatInt(e.Int, 10)
	case LitFloat:
		// Plain decimal notation with a mandatory '.', also for a literal
		// written with an exponent: the shortest decimal re-parses to the
		// same float, and "−0" must stay recognizably a float so the
		// rendering re-parses to the same literal.
		s := strconv.FormatFloat(e.Float, 'f', -1, 64)
		if !strings.ContainsAny(s, ".") {
			s += ".0"
		}
		return s
	case LitString:
		return "'" + strings.ReplaceAll(e.Str, "'", "''") + "'"
	case LitBool:
		if e.Bool {
			return "TRUE"
		}
		return "FALSE"
	case LitNull:
		return "NULL"
	default:
		return "?"
	}
}

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators.
const (
	OpEq BinaryOp = iota + 1
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
)

func (op BinaryOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	default:
		return fmt.Sprintf("BinaryOp(%d)", int(op))
	}
}

// IsComparison reports whether op compares two values to a boolean.
func (op BinaryOp) IsComparison() bool {
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

// BinaryExpr is L op R.
type BinaryExpr struct {
	Op BinaryOp
	L  Expr
	R  Expr
}

func (*BinaryExpr) expr() {}

// SQL implements Node.
func (e *BinaryExpr) SQL() string {
	return "(" + e.L.SQL() + " " + e.Op.String() + " " + e.R.SQL() + ")"
}

// UnaryOp enumerates unary operators.
type UnaryOp int

// Unary operators.
const (
	OpNeg UnaryOp = iota + 1
	OpNot
)

// UnaryExpr is op X.
type UnaryExpr struct {
	Op UnaryOp
	X  Expr
}

func (*UnaryExpr) expr() {}

// SQL implements Node.
func (e *UnaryExpr) SQL() string {
	if e.Op == OpNeg {
		return "(-" + e.X.SQL() + ")"
	}
	return "(NOT " + e.X.SQL() + ")"
}

// FuncCall is a function invocation, e.g. an aggregate.
type FuncCall struct {
	Name     string // upper-cased
	Distinct bool   // COUNT(DISTINCT x)
	Star     bool   // COUNT(*)
	Args     []Expr
}

func (*FuncCall) expr() {}

// SQL implements Node.
func (e *FuncCall) SQL() string {
	if e.Star {
		return e.Name + "(*)"
	}
	var sb strings.Builder
	sb.WriteString(e.Name + "(")
	if e.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, a := range e.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.SQL())
	}
	sb.WriteString(")")
	return sb.String()
}

// AggregateFuncs lists the aggregate function names the planner understands.
var AggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// IsAggregate reports whether the call is to a known aggregate function.
func (e *FuncCall) IsAggregate() bool { return AggregateFuncs[e.Name] }

// IsNullExpr is `X IS [NOT] NULL`.
type IsNullExpr struct {
	X   Expr
	Not bool
}

func (*IsNullExpr) expr() {}

// SQL implements Node.
func (e *IsNullExpr) SQL() string {
	if e.Not {
		return "(" + e.X.SQL() + " IS NOT NULL)"
	}
	return "(" + e.X.SQL() + " IS NULL)"
}

// BetweenExpr is `X [NOT] BETWEEN Lo AND Hi`.
type BetweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

func (*BetweenExpr) expr() {}

// SQL implements Node.
func (e *BetweenExpr) SQL() string {
	not := ""
	if e.Not {
		not = "NOT "
	}
	return "(" + e.X.SQL() + " " + not + "BETWEEN " + e.Lo.SQL() + " AND " + e.Hi.SQL() + ")"
}

// InSubqueryExpr is `X IN (SELECT ...)`. Only the positive form exists:
// NOT IN's three-valued NULL semantics make a silent rewrite hazardous, so
// the parser rejects it with a pointer to the outer-join idiom.
type InSubqueryExpr struct {
	X      Expr
	Select *SelectStmt
}

func (*InSubqueryExpr) expr() {}

// SQL implements Node.
func (e *InSubqueryExpr) SQL() string {
	return "(" + e.X.SQL() + " IN (" + e.Select.SQL() + "))"
}

// InListExpr is `X [NOT] IN (a, b, ...)` with literal/scalar items.
type InListExpr struct {
	X     Expr
	Items []Expr
	Not   bool
}

func (*InListExpr) expr() {}

// SQL implements Node.
func (e *InListExpr) SQL() string {
	var sb strings.Builder
	sb.WriteString("(" + e.X.SQL())
	if e.Not {
		sb.WriteString(" NOT")
	}
	sb.WriteString(" IN (")
	for i, it := range e.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.SQL())
	}
	sb.WriteString("))")
	return sb.String()
}

// CaseExpr is a searched CASE expression:
// CASE WHEN cond THEN val [WHEN ...] [ELSE val] END.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr // nil if absent
}

// CaseWhen is one WHEN/THEN arm of a CaseExpr.
type CaseWhen struct {
	Cond Expr
	Then Expr
}

func (*CaseExpr) expr() {}

// SQL implements Node.
func (e *CaseExpr) SQL() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range e.Whens {
		sb.WriteString(" WHEN " + w.Cond.SQL() + " THEN " + w.Then.SQL())
	}
	if e.Else != nil {
		sb.WriteString(" ELSE " + e.Else.SQL())
	}
	sb.WriteString(" END")
	return sb.String()
}

// ---------------------------------------------------------------------------
// Traversal helpers
// ---------------------------------------------------------------------------

// WalkExpr calls fn for e and every sub-expression, pre-order. If fn returns
// false the walk does not descend into that node's children.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *BinaryExpr:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *UnaryExpr:
		WalkExpr(x.X, fn)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *IsNullExpr:
		WalkExpr(x.X, fn)
	case *InSubqueryExpr:
		// Only the left-hand side belongs to the enclosing scope; the
		// subquery's columns resolve against its own FROM clause.
		WalkExpr(x.X, fn)
	case *BetweenExpr:
		WalkExpr(x.X, fn)
		WalkExpr(x.Lo, fn)
		WalkExpr(x.Hi, fn)
	case *InListExpr:
		WalkExpr(x.X, fn)
		for _, it := range x.Items {
			WalkExpr(it, fn)
		}
	case *CaseExpr:
		for _, w := range x.Whens {
			WalkExpr(w.Cond, fn)
			WalkExpr(w.Then, fn)
		}
		WalkExpr(x.Else, fn)
	}
}

// ColumnRefs returns every column reference in e, in source order.
func ColumnRefs(e Expr) []*ColumnRef {
	var refs []*ColumnRef
	WalkExpr(e, func(x Expr) bool {
		if c, ok := x.(*ColumnRef); ok {
			refs = append(refs, c)
		}
		return true
	})
	return refs
}

// ContainsAggregate reports whether e contains an aggregate function call.
func ContainsAggregate(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		if f, ok := x.(*FuncCall); ok && f.IsAggregate() {
			found = true
			return false
		}
		return !found
	})
	return found
}

// SplitConjuncts flattens a tree of ANDs into its conjunct list.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// JoinConjuncts rebuilds an AND tree from conjuncts; nil for an empty list.
func JoinConjuncts(conjs []Expr) Expr {
	var out Expr
	for _, c := range conjs {
		if out == nil {
			out = c
		} else {
			out = &BinaryExpr{Op: OpAnd, L: out, R: c}
		}
	}
	return out
}

// EqualExpr reports structural equality of two expressions.
func EqualExpr(a, b Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.SQL() == b.SQL()
}
