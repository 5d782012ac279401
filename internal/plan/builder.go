package plan

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"ysmart/internal/exec"
	"ysmart/internal/sqlparser"
)

// Catalog resolves table names to schemas. Column Table bindings in the
// returned schema are ignored; the builder rebinds them to the reference's
// alias.
type Catalog interface {
	Table(name string) (*exec.Schema, bool)
}

// MapCatalog is a Catalog backed by a map with case-insensitive names.
type MapCatalog map[string]*exec.Schema

// Table implements Catalog.
func (m MapCatalog) Table(name string) (*exec.Schema, bool) {
	s, ok := m[strings.ToLower(name)]
	return s, ok
}

// ErrUnsupported is what every refusal of valid SQL that the system does
// not support wraps ("… is not supported"), so a caller can tell it from
// malformed or ill-typed SQL: PostgreSQL's feature_not_supported, not
// syntax_error.
var ErrUnsupported = errors.New("not supported")

// Build converts a parsed SELECT statement into a logical plan.
func Build(stmt *sqlparser.SelectStmt, cat Catalog) (Node, error) {
	b := &builder{cat: cat}
	return b.buildSelect(stmt, true)
}

type builder struct {
	cat Catalog
}

// buildSelect builds one SELECT: the statement itself when top is set, or
// a derived table or IN-subquery of it.
func (b *builder) buildSelect(stmt *sqlparser.SelectStmt, top bool) (Node, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("SELECT without FROM is %w", ErrUnsupported)
	}

	// 1. FROM items.
	fromNodes := make([]Node, len(stmt.From))
	for i, tr := range stmt.From {
		n, err := b.buildTableRef(tr)
		if err != nil {
			return nil, err
		}
		fromNodes[i] = n
	}

	// 2. Extract IN-subquery conjuncts (they become semi-joins after the
	// FROM tree is assembled), then push single-table WHERE conjuncts down
	// to their FROM item.
	var inSubs []*sqlparser.InSubqueryExpr
	conjs := sqlparser.SplitConjuncts(stmt.Where)[:0:0]
	for _, c := range sqlparser.SplitConjuncts(stmt.Where) {
		if is, ok := c.(*sqlparser.InSubqueryExpr); ok {
			inSubs = append(inSubs, is)
			continue
		}
		conjs = append(conjs, c)
	}
	used := make([]bool, len(conjs))
	for ci, c := range conjs {
		resolvesAt := -1
		count := 0
		for ni, n := range fromNodes {
			if exprResolves(c, n.Schema()) {
				resolvesAt = ni
				count++
			}
		}
		if count == 1 {
			if err := checkCondition("WHERE clause", c, fromNodes[resolvesAt].Schema()); err != nil {
				return nil, err
			}
			fromNodes[resolvesAt] = &Filter{Child: fromNodes[resolvesAt], Cond: c}
			used[ci] = true
		}
	}

	// 3. Assemble comma joins using the equi-join conjuncts in WHERE.
	cur := fromNodes[0]
	for _, right := range fromNodes[1:] {
		var leftKeys, rightKeys []int
		for ci, c := range conjs {
			if used[ci] {
				continue
			}
			li, ri, ok := equiKeyPair(c, cur.Schema(), right.Schema())
			if !ok {
				continue
			}
			leftKeys = append(leftKeys, li)
			rightKeys = append(rightKeys, ri)
			used[ci] = true
		}
		if len(leftKeys) == 0 {
			return nil, fmt.Errorf("no equi-join condition links %s to the preceding tables: a cross join is %w", describeRef(right), ErrUnsupported)
		}
		j, err := NewJoin(sqlparser.InnerJoin, cur, right, leftKeys, rightKeys, nil)
		if err != nil {
			return nil, err
		}
		cur = j
	}

	// 4. Remaining WHERE conjuncts filter the joined relation.
	var rest []sqlparser.Expr
	for ci, c := range conjs {
		if !used[ci] {
			rest = append(rest, c)
		}
	}
	if len(rest) > 0 {
		cond := sqlparser.JoinConjuncts(rest)
		if err := checkCondition("WHERE clause", cond, cur.Schema()); err != nil {
			return nil, err
		}
		cur = &Filter{Child: cur, Cond: cond}
	}

	// 5. IN-subquery conjuncts become semi-joins: the query's rows keep
	// their multiplicity while the subquery side is deduplicated — the
	// rewrite the paper's authors applied by hand when flattening the
	// TPC-H queries for MapReduce (§VII.A.1).
	for i, is := range inSubs {
		next, err := b.applySemiJoin(cur, is, i)
		if err != nil {
			return nil, err
		}
		cur = next
	}

	// 6. Aggregation. A statement it rewrites (stmt != orig) reads its
	// output (above) and no longer the columns below it.
	var err error
	orig, below := stmt, cur.Schema()
	cur, stmt, err = b.buildAggregation(cur, stmt)
	if err != nil {
		return nil, err
	}
	above := cur.Schema()

	// 6. Final projection.
	proj, projSubs, err := b.buildProjection(cur, stmt)
	if err != nil {
		if stmt != orig {
			for _, item := range stmt.Select {
				if gerr := ungroupedColumn(item.Expr, above, below); gerr != nil {
					return nil, gerr
				}
			}
		}
		return nil, err
	}
	cur = proj

	// 7. DISTINCT via re-grouping on all output columns.
	if stmt.Distinct {
		groupBy := make([]sqlparser.Expr, cur.Schema().Len())
		names := make([]string, cur.Schema().Len())
		for i, c := range cur.Schema().Cols {
			groupBy[i] = &sqlparser.ColumnRef{Qualifier: c.Table, Name: c.Name}
			names[i] = c.Name
		}
		agg, err := NewAggregate(cur, groupBy, names, nil)
		if err != nil {
			return nil, fmt.Errorf("DISTINCT: %w", err)
		}
		cur = agg
	}

	// 8. ORDER BY / LIMIT. Order keys that name projected expressions are
	// rewritten to references of the projection's output columns; errors
	// name the key as the statement spelled it. A key that only resolves
	// against the projection's input would need a hidden sort column. A
	// LIMIT runs only as the cut of the final ORDER BY's single total-order
	// reducer, so one anywhere else is refused here, before lowering.
	if len(stmt.OrderBy) > 0 {
		keys := make([]SortKey, len(stmt.OrderBy))
		for i, o := range stmt.OrderBy {
			e := RewriteExpr(o.Expr, projSubs)
			if _, err := exec.InferType(e, cur.Schema()); err != nil {
				user := orig.OrderBy[i].Expr
				if stmt != orig {
					if gerr := ungroupedColumn(e, above, below); gerr != nil {
						return nil, gerr
					}
					if sqlparser.ContainsAggregate(user) {
						return nil, fmt.Errorf("ORDER BY %s: an aggregate that is not in the select list is %w", user.SQL(), ErrUnsupported)
					}
				}
				if _, ierr := exec.InferType(e, above); ierr == nil {
					return nil, fmt.Errorf("ORDER BY %s: a column that is not in the select list is %w", user.SQL(), ErrUnsupported)
				}
				return nil, fmt.Errorf("ORDER BY %s: %w", user.SQL(), err)
			}
			keys[i] = SortKey{Expr: e, Desc: o.Desc}
		}
		cur = &Sort{Child: cur, Keys: keys}
	}
	if stmt.Limit >= 0 {
		if !top || len(stmt.OrderBy) == 0 {
			return nil, fmt.Errorf("a LIMIT that is not directly above the final ORDER BY is %w", ErrUnsupported)
		}
		cur = &Limit{Child: cur, N: stmt.Limit}
	}
	return cur, nil
}

func (b *builder) buildTableRef(tr sqlparser.TableRef) (Node, error) {
	switch x := tr.(type) {
	case *sqlparser.BaseTable:
		schema, ok := b.cat.Table(x.Name)
		if !ok {
			return nil, fmt.Errorf("unknown table %q", x.Name)
		}
		return NewScan(strings.ToLower(x.Name), x.Binding(), schema), nil

	case *sqlparser.Subquery:
		child, err := b.buildSelect(x.Select, false)
		if err != nil {
			return nil, fmt.Errorf("derived table %s: %w", x.Alias, err)
		}
		return NewRebind(child, x.Alias)

	case *sqlparser.Join:
		return b.buildExplicitJoin(x)

	default:
		return nil, fmt.Errorf("unsupported table reference %T", tr)
	}
}

func (b *builder) buildExplicitJoin(x *sqlparser.Join) (Node, error) {
	if x.Type == sqlparser.CrossJoin {
		return nil, fmt.Errorf("CROSS JOIN is %w", ErrUnsupported)
	}
	left, err := b.buildTableRef(x.Left)
	if err != nil {
		return nil, err
	}
	right, err := b.buildTableRef(x.Right)
	if err != nil {
		return nil, err
	}
	var leftKeys, rightKeys []int
	var residual []sqlparser.Expr
	for _, c := range sqlparser.SplitConjuncts(x.On) {
		if li, ri, ok := equiKeyPair(c, left.Schema(), right.Schema()); ok {
			leftKeys = append(leftKeys, li)
			rightKeys = append(rightKeys, ri)
			continue
		}
		residual = append(residual, c)
	}
	if len(leftKeys) == 0 {
		return nil, fmt.Errorf("%s without an equi-join condition is %w", x.Type, ErrUnsupported)
	}
	res := sqlparser.JoinConjuncts(residual)
	if res != nil {
		if err := checkCondition("ON clause", res, left.Schema().Concat(right.Schema())); err != nil {
			return nil, err
		}
	}
	return NewJoin(x.Type, left, right, leftKeys, rightKeys, res)
}

// applySemiJoin rewrites `x IN (SELECT c FROM ...)` as an inner join of the
// current tree against the deduplicated subquery result.
func (b *builder) applySemiJoin(cur Node, e *sqlparser.InSubqueryExpr, idx int) (Node, error) {
	ref, ok := e.X.(*sqlparser.ColumnRef)
	if !ok {
		return nil, fmt.Errorf("IN (SELECT ...) requires a plain column on the left, got %s", e.X.SQL())
	}
	leftIdx, err := cur.Schema().Resolve(ref.Qualifier, ref.Name)
	if err != nil {
		return nil, fmt.Errorf("IN subquery: %w", err)
	}
	sub, err := b.buildSelect(e.Select, false)
	if err != nil {
		return nil, fmt.Errorf("IN subquery: %w", err)
	}
	if sub.Schema().Len() != 1 {
		return nil, fmt.Errorf("IN subquery must select exactly one column, got %d", sub.Schema().Len())
	}
	binding := fmt.Sprintf("_in%d", idx)
	bound, err := NewRebind(sub, binding)
	if err != nil {
		return nil, err
	}
	var right Node = bound
	// Deduplicate unless the subquery provably yields distinct values
	// (e.g. its column is the sole grouping key).
	if !distinctOnCol(sub, 0) {
		col := bound.Schema().Cols[0]
		agg, err := NewAggregate(bound,
			[]sqlparser.Expr{&sqlparser.ColumnRef{Qualifier: binding, Name: col.Name}},
			[]string{col.Name}, nil)
		if err != nil {
			return nil, fmt.Errorf("IN subquery dedup: %w", err)
		}
		right = agg
	}
	// The subquery side is planner-internal: hide its column from
	// unqualified resolution so it never makes user references ambiguous.
	right.Schema().Cols[0].Hidden = true
	return NewJoin(sqlparser.InnerJoin, cur, right, []int{leftIdx}, []int{0}, nil)
}

// distinctOnCol reports whether column col of n provably holds distinct
// values per row (so a semi-join needs no deduplication).
func distinctOnCol(n Node, col int) bool {
	switch x := n.(type) {
	case *Aggregate:
		return len(x.GroupBy) == 1 && col == 0
	case *Filter:
		return distinctOnCol(x.Child, col)
	case *Rebind:
		return distinctOnCol(x.Child, col)
	case *Limit:
		return distinctOnCol(x.Child, col)
	case *Sort:
		return distinctOnCol(x.Child, col)
	case *Project:
		ref, ok := x.Exprs[col].(*sqlparser.ColumnRef)
		if !ok {
			return false
		}
		idx, err := x.Child.Schema().Resolve(ref.Qualifier, ref.Name)
		if err != nil {
			return false
		}
		return distinctOnCol(x.Child, idx)
	default:
		return false
	}
}

// equiKeyPair recognizes `a = b` conjuncts whose sides resolve on opposite
// inputs and returns the column indices (left, right).
func equiKeyPair(c sqlparser.Expr, left, right *exec.Schema) (int, int, bool) {
	be, ok := c.(*sqlparser.BinaryExpr)
	if !ok || be.Op != sqlparser.OpEq {
		return 0, 0, false
	}
	lc, ok := be.L.(*sqlparser.ColumnRef)
	if !ok {
		return 0, 0, false
	}
	rc, ok := be.R.(*sqlparser.ColumnRef)
	if !ok {
		return 0, 0, false
	}
	if li, err := left.Resolve(lc.Qualifier, lc.Name); err == nil {
		if ri, err := right.Resolve(rc.Qualifier, rc.Name); err == nil {
			// Reject if the ref is resolvable on both sides (ambiguous).
			if _, err := right.Resolve(lc.Qualifier, lc.Name); err == nil {
				return 0, 0, false
			}
			if _, err := left.Resolve(rc.Qualifier, rc.Name); err == nil {
				return 0, 0, false
			}
			return li, ri, true
		}
	}
	// Try the flipped orientation.
	if li, err := left.Resolve(rc.Qualifier, rc.Name); err == nil {
		if ri, err := right.Resolve(lc.Qualifier, lc.Name); err == nil {
			if _, err := right.Resolve(rc.Qualifier, rc.Name); err == nil {
				return 0, 0, false
			}
			if _, err := left.Resolve(lc.Qualifier, lc.Name); err == nil {
				return 0, 0, false
			}
			return li, ri, true
		}
	}
	return 0, 0, false
}

// ungroupedColumn is PostgreSQL's error for the first column of e, an
// expression read above an aggregation, that resolves below it but not
// above it, or nil when e has none.
func ungroupedColumn(e sqlparser.Expr, above, below *exec.Schema) error {
	for _, ref := range sqlparser.ColumnRefs(e) {
		if _, err := above.Resolve(ref.Qualifier, ref.Name); err == nil {
			continue
		}
		if _, err := below.Resolve(ref.Qualifier, ref.Name); err == nil {
			return fmt.Errorf("column %q must appear in the GROUP BY clause or be used in an aggregate function", ref.SQL())
		}
	}
	return nil
}

// checkCondition types cond — a WHERE conjunct, an ON residual or a
// HAVING clause (what) — against s: it must resolve, type-check and be
// BOOL or NULL, as PostgreSQL requires of a condition while planning.
func checkCondition(what string, cond sqlparser.Expr, s *exec.Schema) error {
	if err := exec.CheckCondition(cond, s); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

// exprResolves reports whether every column reference in e resolves
// unambiguously against s: where a WHERE conjunct can be pushed down.
func exprResolves(e sqlparser.Expr, s *exec.Schema) bool {
	ok := true
	for _, ref := range sqlparser.ColumnRefs(e) {
		if _, err := s.Resolve(ref.Qualifier, ref.Name); err != nil {
			ok = false
			break
		}
	}
	return ok
}

func describeRef(n Node) string {
	switch x := n.(type) {
	case *Scan:
		return x.Binding
	case *Filter:
		return describeRef(x.Child)
	case *Rebind:
		return x.Binding
	default:
		return "derived table"
	}
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

// buildAggregation inserts an Aggregate (plus HAVING filter) when the
// statement groups or aggregates, and returns a statement copy whose
// select/order expressions are rewritten against the aggregate output.
func (b *builder) buildAggregation(cur Node, stmt *sqlparser.SelectStmt) (Node, *sqlparser.SelectStmt, error) {
	hasAggs := stmt.Having != nil
	for _, item := range stmt.Select {
		if !item.Star && sqlparser.ContainsAggregate(item.Expr) {
			hasAggs = true
		}
	}
	for _, o := range stmt.OrderBy {
		if sqlparser.ContainsAggregate(o.Expr) {
			hasAggs = true
		}
	}
	if !hasAggs && len(stmt.GroupBy) == 0 {
		return cur, stmt, nil
	}

	aliasSubs := selectAliasSubs(stmt)

	// Resolve grouping expressions (allowing select-alias references).
	groupBy := make([]sqlparser.Expr, 0, len(stmt.GroupBy))
	groupNames := make([]string, 0, len(stmt.GroupBy))
	subs := make(map[string]sqlparser.Expr)
	seenGroup := make(map[string]bool)
	for i, g := range stmt.GroupBy {
		aliasKey := ""
		if ref, ok := g.(*sqlparser.ColumnRef); ok && ref.Qualifier == "" {
			if _, err := cur.Schema().Resolve("", ref.Name); err != nil {
				if sub, ok := aliasSubs[strings.ToLower(ref.Name)]; ok {
					if sqlparser.ContainsAggregate(sub) {
						return nil, nil, fmt.Errorf("GROUP BY %s refers to an aggregate", ref.Name)
					}
					aliasKey = g.SQL()
					g = sub
				}
			}
		}
		if _, err := exec.InferType(g, cur.Schema()); err != nil {
			return nil, nil, fmt.Errorf("GROUP BY %s: %w", g.SQL(), err)
		}
		if seenGroup[g.SQL()] {
			continue
		}
		seenGroup[g.SQL()] = true
		name := "_g" + strconv.Itoa(i)
		if ref, ok := g.(*sqlparser.ColumnRef); ok {
			name = ref.Name
		} else if aliasKey != "" {
			name = aliasKey
		}
		groupBy = append(groupBy, g)
		groupNames = append(groupNames, name)
	}

	// Collect distinct aggregate calls from select, having and order by.
	var aggs []AggSpec
	aggIndex := make(map[string]string) // call SQL -> output name
	collect := func(e sqlparser.Expr) error {
		var werr error
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
			f, ok := x.(*sqlparser.FuncCall)
			if !ok || !f.IsAggregate() {
				return true
			}
			key := f.SQL()
			if _, seen := aggIndex[key]; seen {
				return false
			}
			kind, err := exec.AggKindOf(f)
			if err != nil {
				werr = err
				return false
			}
			var arg sqlparser.Expr
			if !f.Star {
				arg = f.Args[0]
				if sqlparser.ContainsAggregate(arg) {
					werr = fmt.Errorf("nested aggregate in %s", key)
					return false
				}
				if _, err := exec.InferType(arg, cur.Schema()); err != nil {
					werr = fmt.Errorf("aggregate %s: %w", key, err)
					return false
				}
			}
			name := "_a" + strconv.Itoa(len(aggs))
			aggs = append(aggs, AggSpec{Kind: kind, Arg: arg, Name: name})
			aggIndex[key] = name
			return false // do not descend into aggregate arguments
		})
		return werr
	}
	for _, item := range stmt.Select {
		if item.Star {
			return nil, nil, fmt.Errorf("SELECT * cannot be combined with aggregation")
		}
		if err := collect(item.Expr); err != nil {
			return nil, nil, err
		}
	}
	if stmt.Having != nil {
		if err := collect(stmt.Having); err != nil {
			return nil, nil, err
		}
	}
	for _, o := range stmt.OrderBy {
		if err := collect(o.Expr); err != nil {
			return nil, nil, err
		}
	}

	agg, err := NewAggregate(cur, groupBy, groupNames, aggs)
	if err != nil {
		return nil, nil, err
	}

	// Substitutions: group expressions and aggregate calls become references
	// to the aggregate's output columns.
	for i, g := range groupBy {
		subs[g.SQL()] = &sqlparser.ColumnRef{Qualifier: agg.GroupQuals[i], Name: agg.GroupNames[i]}
		// Unqualified spelling of a qualified group column also resolves,
		// provided it is unambiguous in the aggregate output.
		if ref, ok := g.(*sqlparser.ColumnRef); ok && ref.Qualifier != "" {
			bare := (&sqlparser.ColumnRef{Name: ref.Name}).SQL()
			if _, exists := subs[bare]; !exists {
				if _, rerr := agg.Schema().Resolve("", ref.Name); rerr == nil {
					subs[bare] = &sqlparser.ColumnRef{Name: ref.Name}
				}
			}
		}
	}
	for key, name := range aggIndex {
		subs[key] = &sqlparser.ColumnRef{Name: name}
	}
	// Select aliases that named group expressions map to the same outputs.
	for alias, e := range aliasSubs {
		if r, ok := subs[e.SQL()]; ok {
			if _, exists := subs[alias]; !exists {
				subs[alias] = r
			}
		}
	}

	var out Node = agg
	if stmt.Having != nil {
		having := RewriteExpr(stmt.Having, subs)
		if err := checkCondition("HAVING", having, out.Schema()); err != nil {
			if gerr := ungroupedColumn(having, out.Schema(), cur.Schema()); gerr != nil {
				return nil, nil, gerr
			}
			return nil, nil, err
		}
		out = &Filter{Child: out, Cond: having}
	}

	// Rewrite the statement's output expressions against the aggregate.
	newStmt := *stmt
	newStmt.Select = make([]sqlparser.SelectItem, len(stmt.Select))
	for i, item := range stmt.Select {
		newStmt.Select[i] = sqlparser.SelectItem{
			Expr:  RewriteExpr(item.Expr, subs),
			Alias: item.Alias,
		}
	}
	newStmt.OrderBy = make([]sqlparser.OrderItem, len(stmt.OrderBy))
	for i, o := range stmt.OrderBy {
		newStmt.OrderBy[i] = sqlparser.OrderItem{Expr: RewriteExpr(o.Expr, subs), Desc: o.Desc}
	}
	newStmt.GroupBy = nil
	newStmt.Having = nil
	return out, &newStmt, nil
}

// selectAliasSubs maps lower-cased select aliases to their expressions.
func selectAliasSubs(stmt *sqlparser.SelectStmt) map[string]sqlparser.Expr {
	out := make(map[string]sqlparser.Expr)
	for _, item := range stmt.Select {
		if item.Alias != "" && item.Expr != nil {
			out[strings.ToLower(item.Alias)] = item.Expr
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Projection
// ---------------------------------------------------------------------------

// buildProjection creates the final projection and returns substitutions
// mapping each projected expression (and its alias) to a reference of the
// corresponding output column, for use by ORDER BY.
func (b *builder) buildProjection(cur Node, stmt *sqlparser.SelectStmt) (Node, map[string]sqlparser.Expr, error) {
	var exprs []sqlparser.Expr
	var names []string
	schema := cur.Schema()
	for i, item := range stmt.Select {
		if item.Star {
			for _, c := range schema.Cols {
				if c.Hidden {
					continue // planner-internal columns never reach `*`
				}
				if item.StarQualifier != "" && !strings.EqualFold(c.Table, item.StarQualifier) {
					continue
				}
				exprs = append(exprs, &sqlparser.ColumnRef{Qualifier: c.Table, Name: c.Name})
				names = append(names, c.Name)
			}
			if item.StarQualifier != "" && len(exprs) == 0 {
				return nil, nil, fmt.Errorf("unknown table %q in %s.*", item.StarQualifier, item.StarQualifier)
			}
			continue
		}
		name := item.Alias
		if name == "" {
			if ref, ok := item.Expr.(*sqlparser.ColumnRef); ok {
				name = ref.Name
			} else {
				name = "_c" + strconv.Itoa(i)
			}
		}
		exprs = append(exprs, item.Expr)
		names = append(names, name)
	}
	if len(exprs) == 0 {
		return nil, nil, fmt.Errorf("empty select list")
	}
	p, err := NewProject(cur, exprs, names)
	if err != nil {
		return nil, nil, err
	}
	subs := make(map[string]sqlparser.Expr, 2*len(exprs))
	for i, e := range exprs {
		out := &sqlparser.ColumnRef{Name: names[i]}
		if _, ok := subs[e.SQL()]; !ok {
			subs[e.SQL()] = out
		}
		if _, ok := subs[names[i]]; !ok {
			subs[names[i]] = out
		}
	}
	return p, subs, nil
}
