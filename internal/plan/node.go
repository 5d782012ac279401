package plan

import (
	"fmt"
	"strings"

	"ysmart/internal/exec"
	"ysmart/internal/sqlparser"
)

// Node is a logical plan operator.
type Node interface {
	// Schema is the node's output schema.
	Schema() *exec.Schema
	// Lineage maps each output column to its base-table origin; computed
	// columns carry the zero ColumnID.
	Lineage() []ColumnID
	// Children returns the node's inputs in left-to-right order.
	Children() []Node
	// Describe renders a one-line operator description for EXPLAIN output.
	Describe() string
}

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

// Scan reads a physical base table under a binding (its alias in scope).
type Scan struct {
	Table   string // physical table name
	Binding string // name the columns are reachable through
	schema  *exec.Schema
	lineage []ColumnID
}

// NewScan builds a scan whose schema binds tableSchema's columns to binding.
func NewScan(table, binding string, tableSchema *exec.Schema) *Scan {
	s := &Scan{
		Table:   table,
		Binding: binding,
		schema:  tableSchema.Rebind(binding),
	}
	s.lineage = make([]ColumnID, len(tableSchema.Cols))
	for i, c := range tableSchema.Cols {
		s.lineage[i] = MakeColumnID(table, c.Name)
	}
	return s
}

// Schema implements Node.
func (s *Scan) Schema() *exec.Schema { return s.schema }

// Lineage implements Node.
func (s *Scan) Lineage() []ColumnID { return s.lineage }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Describe implements Node.
func (s *Scan) Describe() string {
	if s.Binding != "" && !strings.EqualFold(s.Binding, s.Table) {
		return fmt.Sprintf("Scan %s AS %s", s.Table, s.Binding)
	}
	return "Scan " + s.Table
}

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

// Filter keeps rows for which Cond evaluates to TRUE.
type Filter struct {
	Child Node
	Cond  sqlparser.Expr
}

// Schema implements Node.
func (f *Filter) Schema() *exec.Schema { return f.Child.Schema() }

// Lineage implements Node.
func (f *Filter) Lineage() []ColumnID { return f.Child.Lineage() }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Child} }

// Describe implements Node.
func (f *Filter) Describe() string { return "Filter " + f.Cond.SQL() }

// ---------------------------------------------------------------------------
// Project
// ---------------------------------------------------------------------------

// Project computes an output row of expressions over the child.
type Project struct {
	Child   Node
	Exprs   []sqlparser.Expr
	schema  *exec.Schema
	lineage []ColumnID
}

// NewProject builds a projection. names supplies the output column names
// (one per expression); output columns are unqualified.
func NewProject(child Node, exprs []sqlparser.Expr, names []string) (*Project, error) {
	if len(exprs) != len(names) {
		return nil, fmt.Errorf("project: %d exprs but %d names", len(exprs), len(names))
	}
	p := &Project{Child: child, Exprs: exprs}
	childSchema := child.Schema()
	childLineage := child.Lineage()
	p.schema = &exec.Schema{Cols: make([]exec.Column, len(exprs))}
	p.lineage = make([]ColumnID, len(exprs))
	for i, e := range exprs {
		t, err := exec.InferType(e, childSchema)
		if err != nil {
			return nil, fmt.Errorf("select list column %q: %w", names[i], err)
		}
		p.schema.Cols[i] = exec.Column{Name: names[i], Type: t}
		if c, ok := e.(*sqlparser.ColumnRef); ok {
			if idx, err := childSchema.Resolve(c.Qualifier, c.Name); err == nil {
				p.lineage[i] = childLineage[idx]
			}
		}
	}
	return p, nil
}

// Schema implements Node.
func (p *Project) Schema() *exec.Schema { return p.schema }

// Lineage implements Node.
func (p *Project) Lineage() []ColumnID { return p.lineage }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Child} }

// Describe implements Node.
func (p *Project) Describe() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.SQL() + " AS " + p.schema.Cols[i].Name
	}
	return "Project " + strings.Join(parts, ", ")
}

// ---------------------------------------------------------------------------
// Rebind
// ---------------------------------------------------------------------------

// Rebind re-qualifies a derived table's output columns under an alias:
// (SELECT ...) AS alias. It is a pure metadata operation.
type Rebind struct {
	Child   Node
	Binding string
	schema  *exec.Schema
}

// NewRebind wraps child so its columns resolve through binding. Duplicate
// column names in the derived output are rejected because they would be
// unreachable.
func NewRebind(child Node, binding string) (*Rebind, error) {
	seen := make(map[string]bool, child.Schema().Len())
	for _, c := range child.Schema().Cols {
		lower := strings.ToLower(c.Name)
		if seen[lower] {
			return nil, fmt.Errorf("derived table %s has duplicate column %q", binding, c.Name)
		}
		seen[lower] = true
	}
	return &Rebind{Child: child, Binding: binding, schema: child.Schema().Rebind(binding)}, nil
}

// Schema implements Node.
func (r *Rebind) Schema() *exec.Schema { return r.schema }

// Lineage implements Node.
func (r *Rebind) Lineage() []ColumnID { return r.Child.Lineage() }

// Children implements Node.
func (r *Rebind) Children() []Node { return []Node{r.Child} }

// Describe implements Node.
func (r *Rebind) Describe() string { return "As " + r.Binding }

// ---------------------------------------------------------------------------
// Join
// ---------------------------------------------------------------------------

// Join is an equi-join of two inputs. LeftKeys[i] pairs with RightKeys[i].
// Residual is an extra predicate applied to matched pairs (ON-clause
// conjuncts that are not equi-join conditions); for outer joins a pair
// failing Residual does not match and may be null-extended.
type Join struct {
	Type      sqlparser.JoinType
	Left      Node
	Right     Node
	LeftKeys  []int
	RightKeys []int
	Residual  sqlparser.Expr // nil if none; resolves against the concat schema
	schema    *exec.Schema
	lineage   []ColumnID
}

// NewJoin builds a join node; key slices must be equal length and non-empty.
func NewJoin(typ sqlparser.JoinType, left, right Node, leftKeys, rightKeys []int, residual sqlparser.Expr) (*Join, error) {
	if len(leftKeys) != len(rightKeys) {
		return nil, fmt.Errorf("join: %d left keys but %d right keys", len(leftKeys), len(rightKeys))
	}
	if len(leftKeys) == 0 {
		return nil, fmt.Errorf("join without an equi-join condition is not supported")
	}
	j := &Join{
		Type: typ, Left: left, Right: right,
		LeftKeys: leftKeys, RightKeys: rightKeys, Residual: residual,
		schema:  left.Schema().Concat(right.Schema()),
		lineage: append(append([]ColumnID{}, left.Lineage()...), right.Lineage()...),
	}
	return j, nil
}

// Schema implements Node.
func (j *Join) Schema() *exec.Schema { return j.schema }

// Lineage implements Node.
func (j *Join) Lineage() []ColumnID { return j.lineage }

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// Describe implements Node.
func (j *Join) Describe() string {
	var conds []string
	ls, rs := j.Left.Schema(), j.Right.Schema()
	for i := range j.LeftKeys {
		conds = append(conds, ls.Cols[j.LeftKeys[i]].QualifiedName()+" = "+rs.Cols[j.RightKeys[i]].QualifiedName())
	}
	s := j.Type.String() + " ON " + strings.Join(conds, " AND ")
	if j.Residual != nil {
		s += " AND " + j.Residual.SQL()
	}
	return s
}

// PartKey returns the join's partition key: one component per key pair,
// containing the lineage of both sides (paper §IV.A: "The partition key of
// an equi-join is the set of columns used in the join condition").
func (j *Join) PartKey() PartKey {
	ll, rl := j.Left.Lineage(), j.Right.Lineage()
	pk := make(PartKey, len(j.LeftKeys))
	for i := range j.LeftKeys {
		pk[i] = NewKeyComponent(ll[j.LeftKeys[i]], rl[j.RightKeys[i]])
	}
	return pk
}

// ---------------------------------------------------------------------------
// Aggregate
// ---------------------------------------------------------------------------

// AggSpec is one aggregate computation.
type AggSpec struct {
	Kind exec.AggKind
	Arg  sqlparser.Expr // nil for COUNT(*)
	Name string         // output column name
}

// Aggregate groups the child rows by GroupBy expressions and computes the
// aggregates. Its output schema is the grouping columns followed by the
// aggregate results. With no GroupBy it produces a single global row.
type Aggregate struct {
	Child      Node
	GroupBy    []sqlparser.Expr
	GroupNames []string // output names, parallel to GroupBy
	GroupQuals []string // output bindings (qualifier of the source column, "" if computed)
	Aggs       []AggSpec
	// PKChoice holds the indices (into GroupBy) of the partition-key
	// candidate selected by correlation analysis. The default — all
	// grouping columns — is set by NewAggregate.
	PKChoice []int
	schema   *exec.Schema
	lineage  []ColumnID
}

// NewAggregate builds an aggregate node and types its output schema.
func NewAggregate(child Node, groupBy []sqlparser.Expr, groupNames []string, aggs []AggSpec) (*Aggregate, error) {
	if len(groupBy) != len(groupNames) {
		return nil, fmt.Errorf("aggregate: %d group exprs but %d names", len(groupBy), len(groupNames))
	}
	a := &Aggregate{Child: child, GroupBy: groupBy, GroupNames: groupNames, Aggs: aggs}
	childSchema := child.Schema()
	childLineage := child.Lineage()
	n := len(groupBy) + len(aggs)
	a.schema = &exec.Schema{Cols: make([]exec.Column, 0, n)}
	a.lineage = make([]ColumnID, 0, n)
	a.GroupQuals = make([]string, len(groupBy))
	for i, g := range groupBy {
		t, err := exec.InferType(g, childSchema)
		if err != nil {
			return nil, fmt.Errorf("group by %s: %w", g.SQL(), err)
		}
		var lin ColumnID
		if c, ok := g.(*sqlparser.ColumnRef); ok {
			if idx, err := childSchema.Resolve(c.Qualifier, c.Name); err == nil {
				lin = childLineage[idx]
				a.GroupQuals[i] = childSchema.Cols[idx].Table
			}
		}
		a.schema.Cols = append(a.schema.Cols, exec.Column{Table: a.GroupQuals[i], Name: groupNames[i], Type: t})
		a.lineage = append(a.lineage, lin)
	}
	for _, spec := range aggs {
		var argType exec.Type
		if spec.Arg != nil {
			t, err := exec.InferType(spec.Arg, childSchema)
			if err != nil {
				return nil, fmt.Errorf("aggregate %s: %w", spec.Name, err)
			}
			argType = t
		} else {
			argType = exec.TypeInt
		}
		rt, err := spec.Kind.ResultType(argType)
		if err != nil {
			return nil, fmt.Errorf("aggregate %s: %w", spec.Name, err)
		}
		a.schema.Cols = append(a.schema.Cols, exec.Column{Name: spec.Name, Type: rt})
		a.lineage = append(a.lineage, ColumnID{})
	}
	a.PKChoice = make([]int, len(groupBy))
	for i := range a.PKChoice {
		a.PKChoice[i] = i
	}
	return a, nil
}

// Schema implements Node.
func (a *Aggregate) Schema() *exec.Schema { return a.schema }

// Lineage implements Node.
func (a *Aggregate) Lineage() []ColumnID { return a.lineage }

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Child} }

// Describe implements Node.
func (a *Aggregate) Describe() string {
	var parts []string
	for i, g := range a.GroupBy {
		parts = append(parts, g.SQL()+" AS "+a.GroupNames[i])
	}
	for _, spec := range a.Aggs {
		arg := "*"
		if spec.Arg != nil {
			arg = spec.Arg.SQL()
		}
		parts = append(parts, fmt.Sprintf("%v[%s] AS %s", spec.Kind, arg, spec.Name))
	}
	return "Aggregate " + strings.Join(parts, ", ")
}

// CandidatePKs enumerates the aggregation's partition-key candidates: every
// non-empty subset of the grouping columns (paper §IV.A). Each candidate is
// returned as indices into GroupBy, smallest subsets first. A global
// aggregate (no grouping) has no candidates.
func (a *Aggregate) CandidatePKs() [][]int {
	n := len(a.GroupBy)
	if n == 0 {
		return nil
	}
	var out [][]int
	// Enumerate subsets by popcount so singleton candidates come first.
	for size := 1; size <= n; size++ {
		for mask := 1; mask < 1<<n; mask++ {
			if popcount(mask) != size {
				continue
			}
			var subset []int
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					subset = append(subset, i)
				}
			}
			out = append(out, subset)
		}
	}
	return out
}

func popcount(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// PartKeyFor converts a candidate (indices into GroupBy) to a PartKey.
func (a *Aggregate) PartKeyFor(candidate []int) PartKey {
	childLineage := a.Child.Lineage()
	childSchema := a.Child.Schema()
	pk := make(PartKey, 0, len(candidate))
	for _, gi := range candidate {
		var comp KeyComponent
		if c, ok := a.GroupBy[gi].(*sqlparser.ColumnRef); ok {
			if idx, err := childSchema.Resolve(c.Qualifier, c.Name); err == nil {
				comp = NewKeyComponent(childLineage[idx])
			}
		}
		if comp == nil {
			comp = NewKeyComponent()
		}
		pk = append(pk, comp)
	}
	return pk
}

// PartKey returns the partition key for the chosen candidate (paper §IV.A:
// "The partition key of an aggregation can be any non-empty subset of the
// grouping columns"; YSmart's heuristic picks the choice, see
// internal/correlation).
func (a *Aggregate) PartKey() PartKey { return a.PartKeyFor(a.PKChoice) }

// ---------------------------------------------------------------------------
// Sort, Limit
// ---------------------------------------------------------------------------

// SortKey is one ORDER BY key resolved against the child schema.
type SortKey struct {
	Expr sqlparser.Expr
	Desc bool
}

// Sort orders the child's rows.
type Sort struct {
	Child Node
	Keys  []SortKey
}

// Schema implements Node.
func (s *Sort) Schema() *exec.Schema { return s.Child.Schema() }

// Lineage implements Node.
func (s *Sort) Lineage() []ColumnID { return s.Child.Lineage() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Child} }

// Describe implements Node.
func (s *Sort) Describe() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		parts[i] = k.Expr.SQL()
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return "Sort " + strings.Join(parts, ", ")
}

// Limit keeps the first N child rows.
type Limit struct {
	Child Node
	N     int
}

// Schema implements Node.
func (l *Limit) Schema() *exec.Schema { return l.Child.Schema() }

// Lineage implements Node.
func (l *Limit) Lineage() []ColumnID { return l.Child.Lineage() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Child} }

// Describe implements Node.
func (l *Limit) Describe() string { return fmt.Sprintf("Limit %d", l.N) }

// ---------------------------------------------------------------------------
// Tree rendering
// ---------------------------------------------------------------------------

// Format renders the plan tree with indentation, one operator per line —
// the output of `ysmart explain`.
func Format(n Node) string {
	var sb strings.Builder
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.Describe())
		sb.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return sb.String()
}

// Walk visits every node in the tree pre-order.
func Walk(n Node, fn func(Node)) {
	fn(n)
	for _, c := range n.Children() {
		Walk(c, fn)
	}
}

// BaseTables returns the set of physical tables scanned anywhere under n.
func BaseTables(n Node) map[string]bool {
	out := make(map[string]bool)
	Walk(n, func(m Node) {
		if s, ok := m.(*Scan); ok {
			out[s.Table] = true
		}
	})
	return out
}
