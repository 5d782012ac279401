package sqlparser

import (
	"fmt"
	"strconv"
	"strings"
)

// Parser builds an AST from tokens. Construct with NewParser or use the
// package-level Parse helper.
type Parser struct {
	toks []Token
	i    int
}

// NewParser returns a parser over pre-lexed tokens: a Tokenize result, which
// ends in the KindEOF token.
func NewParser(toks []Token) *Parser { return &Parser{toks: toks} }

// Parse lexes and parses a single SELECT statement, allowing a trailing
// semicolon.
func Parse(sql string) (*SelectStmt, error) {
	toks, err := Tokenize(sql)
	if err != nil {
		return nil, err
	}
	return NewParser(toks).ParseStatement()
}

// ParseStatement is Parse over the parser's tokens: a single SELECT
// statement, allowing a trailing semicolon, with nothing after it.
func (p *Parser) ParseStatement() (*SelectStmt, error) {
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind == KindSymbol && p.peek().Text == ";" {
		p.next()
	}
	if p.peek().Kind != KindEOF {
		return nil, p.errorf("unexpected %s after end of statement", p.peek())
	}
	return stmt, nil
}

func (p *Parser) peek() Token { return p.toks[p.i] }

func (p *Parser) next() Token {
	t := p.toks[p.i]
	if t.Kind != KindEOF {
		p.i++
	}
	return t
}

func (p *Parser) errorf(format string, args ...any) error {
	t := p.peek()
	return &SyntaxError{
		Msg:  fmt.Sprintf(format, args...),
		Pos:  t.Pos,
		Line: t.Line,
		Col:  t.Col,
	}
}

func (p *Parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.Kind == KindKeyword && t.Text == kw
}

func (p *Parser) acceptKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, found %s", kw, p.peek())
	}
	return nil
}

func (p *Parser) atSymbol(sym string) bool {
	t := p.peek()
	return t.Kind == KindSymbol && t.Text == sym
}

func (p *Parser) acceptSymbol(sym string) bool {
	if p.atSymbol(sym) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errorf("expected %q, found %s", sym, p.peek())
	}
	return nil
}

func (p *Parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Kind != KindIdent {
		return "", p.errorf("expected identifier, found %s", t)
	}
	p.next()
	return t.Text, nil
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

func (p *Parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	if p.acceptKeyword("DISTINCT") {
		stmt.Distinct = true
	} else {
		p.acceptKeyword("ALL")
	}

	items, err := p.parseSelectList()
	if err != nil {
		return nil, err
	}
	stmt.Select = items

	if p.acceptKeyword("FROM") {
		refs, err := p.parseFromList()
		if err != nil {
			return nil, err
		}
		stmt.From = refs
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.Kind != KindNumber {
			return nil, p.errorf("expected number after LIMIT, found %s", t)
		}
		p.next()
		n, err := strconv.Atoi(t.Text)
		if err != nil || n < 0 {
			return nil, p.errorf("invalid LIMIT %q", t.Text)
		}
		stmt.Limit = n
	}
	return stmt, nil
}

func (p *Parser) parseSelectList() ([]SelectItem, error) {
	var items []SelectItem
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		if !p.acceptSymbol(",") {
			return items, nil
		}
	}
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	// `*`
	if p.atSymbol("*") {
		p.next()
		return SelectItem{Star: true}, nil
	}
	// `t.*` requires two-token lookahead before committing to parseExpr.
	if p.peek().Kind == KindIdent && p.i+2 < len(p.toks) {
		dot, star := p.toks[p.i+1], p.toks[p.i+2]
		if dot.Kind == KindSymbol && dot.Text == "." && star.Kind == KindSymbol && star.Text == "*" {
			q := p.next().Text
			p.next()
			p.next()
			return SelectItem{Star: true, StarQualifier: q}, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.peek().Kind == KindIdent {
		// Implicit alias: SELECT a b FROM ...
		item.Alias = p.next().Text
	}
	return item, nil
}

// ---------------------------------------------------------------------------
// FROM
// ---------------------------------------------------------------------------

func (p *Parser) parseFromList() ([]TableRef, error) {
	var refs []TableRef
	for {
		r, err := p.parseJoinedTable()
		if err != nil {
			return nil, err
		}
		refs = append(refs, r)
		if !p.acceptSymbol(",") {
			return refs, nil
		}
	}
}

// parseJoinedTable parses a primary table ref followed by any chain of
// explicit JOIN clauses (left associative).
func (p *Parser) parseJoinedTable() (TableRef, error) {
	left, err := p.parsePrimaryTable()
	if err != nil {
		return nil, err
	}
	for {
		jt, ok, err := p.parseJoinKind()
		if err != nil {
			return nil, err
		}
		if !ok {
			return left, nil
		}
		right, err := p.parsePrimaryTable()
		if err != nil {
			return nil, err
		}
		j := &Join{Type: jt, Left: left, Right: right}
		if jt != CrossJoin {
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			j.On = on
		}
		left = j
	}
}

// parseJoinKind consumes a join introducer if present and returns its type.
func (p *Parser) parseJoinKind() (JoinType, bool, error) {
	switch {
	case p.acceptKeyword("JOIN"):
		return InnerJoin, true, nil
	case p.acceptKeyword("INNER"):
		if err := p.expectKeyword("JOIN"); err != nil {
			return 0, false, err
		}
		return InnerJoin, true, nil
	case p.acceptKeyword("LEFT"):
		p.acceptKeyword("OUTER")
		if err := p.expectKeyword("JOIN"); err != nil {
			return 0, false, err
		}
		return LeftOuterJoin, true, nil
	case p.acceptKeyword("RIGHT"):
		p.acceptKeyword("OUTER")
		if err := p.expectKeyword("JOIN"); err != nil {
			return 0, false, err
		}
		return RightOuterJoin, true, nil
	case p.acceptKeyword("FULL"):
		p.acceptKeyword("OUTER")
		if err := p.expectKeyword("JOIN"); err != nil {
			return 0, false, err
		}
		return FullOuterJoin, true, nil
	case p.acceptKeyword("CROSS"):
		if err := p.expectKeyword("JOIN"); err != nil {
			return 0, false, err
		}
		return CrossJoin, true, nil
	}
	return 0, false, nil
}

func (p *Parser) parsePrimaryTable() (TableRef, error) {
	if p.acceptSymbol("(") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		p.acceptKeyword("AS")
		alias, err := p.expectIdent()
		if err != nil {
			return nil, &SyntaxError{Msg: "derived table requires an alias", Pos: p.peek().Pos, Line: p.peek().Line, Col: p.peek().Col}
		}
		return &Subquery{Select: sub, Alias: alias}, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	bt := &BaseTable{Name: name}
	if p.acceptKeyword("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		bt.Alias = a
	} else if p.peek().Kind == KindIdent {
		bt.Alias = p.next().Text
	}
	return bt, nil
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)
// ---------------------------------------------------------------------------

// parseExpr parses a full boolean expression: OR level.
func (p *Parser) parseExpr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpOr, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpAnd, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: OpNot, X: x}, nil
	}
	return p.parseComparison()
}

var comparisonOps = map[string]BinaryOp{
	"=": OpEq, "<>": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *Parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKeyword("IS") {
		not := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{X: left, Not: not}, nil
	}
	// [NOT] BETWEEN / IN
	not := false
	if p.atKeyword("NOT") {
		// Only consume if followed by BETWEEN or IN.
		save := p.i
		p.next()
		if !p.atKeyword("BETWEEN") && !p.atKeyword("IN") {
			p.i = save
		} else {
			not = true
		}
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{X: left, Lo: lo, Hi: hi, Not: not}, nil
	}
	if p.acceptKeyword("IN") {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		if p.atKeyword("SELECT") {
			if not {
				return nil, p.errorf("NOT IN (SELECT ...) is not supported; rewrite as a LEFT OUTER JOIN with an IS NULL filter")
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &InSubqueryExpr{X: left, Select: sub}, nil
		}
		var items []Expr
		for {
			it, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			items = append(items, it)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InListExpr{X: left, Items: items, Not: not}, nil
	}
	if not {
		return nil, p.errorf("expected BETWEEN or IN after NOT")
	}
	t := p.peek()
	if t.Kind == KindSymbol {
		if op, ok := comparisonOps[t.Text]; ok {
			p.next()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, L: left, R: right}, nil
		}
	}
	return left, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch {
		case p.atSymbol("+"):
			op = OpAdd
		case p.atSymbol("-"):
			op = OpSub
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, L: left, R: right}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch {
		case p.atSymbol("*"):
			op = OpMul
		case p.atSymbol("/"):
			op = OpDiv
		case p.atSymbol("%"):
			op = OpMod
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, L: left, R: right}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negation into numeric literals for cleaner plans.
		if lit, ok := x.(*Literal); ok {
			switch lit.Kind {
			case LitInt:
				return &Literal{Kind: LitInt, Int: -lit.Int}, nil
			case LitFloat:
				return &Literal{Kind: LitFloat, Float: -lit.Float}, nil
			}
		}
		return &UnaryExpr{Op: OpNeg, X: x}, nil
	}
	p.acceptSymbol("+")
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case KindNumber:
		p.next()
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64) // out of range is an error too
			if err != nil {
				return nil, p.errorf("invalid number %q", t.Text)
			}
			return &Literal{Kind: LitFloat, Float: f}, nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("invalid number %q", t.Text)
		}
		return &Literal{Kind: LitInt, Int: n}, nil

	case KindString:
		p.next()
		return &Literal{Kind: LitString, Str: t.Text}, nil

	case KindKeyword:
		switch t.Text {
		case "NULL":
			p.next()
			return &Literal{Kind: LitNull}, nil
		case "TRUE":
			p.next()
			return &Literal{Kind: LitBool, Bool: true}, nil
		case "FALSE":
			p.next()
			return &Literal{Kind: LitBool, Bool: false}, nil
		case "CASE":
			return p.parseCase()
		}
		return nil, p.errorf("unexpected keyword %s in expression", t.Text)

	case KindIdent:
		p.next()
		// Function call?
		if p.atSymbol("(") {
			return p.parseFuncCall(t.Text)
		}
		// Qualified column?
		if p.acceptSymbol(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Qualifier: t.Text, Name: col}, nil
		}
		return &ColumnRef{Name: t.Text}, nil

	case KindSymbol:
		if t.Text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected %s in expression", t)
}

func (p *Parser) parseFuncCall(name string) (Expr, error) {
	upper := strings.ToUpper(name)
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	call := &FuncCall{Name: upper}
	if p.acceptSymbol("*") {
		call.Star = true
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return call, nil
	}
	if p.acceptKeyword("DISTINCT") {
		call.Distinct = true
	}
	if !p.atSymbol(")") {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, a)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if call.IsAggregate() && !call.Star && len(call.Args) != 1 {
		return nil, p.errorf("aggregate %s takes exactly one argument", upper)
	}
	return call, nil
}

func (p *Parser) parseCase() (Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	c := &CaseExpr{}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, CaseWhen{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN arm")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}
