// Package correlation implements YSmart's intra-query correlation analysis
// (paper §IV): it extracts the operation nodes (joins, aggregations, sorts)
// from a logical plan, selects partition-key candidates for aggregations,
// and detects the three correlations — input correlation (IC), transit
// correlation (TC) and job-flow correlation (JFC) — that drive job merging
// in internal/translator.
package correlation

import (
	"fmt"
	"sort"
	"strings"

	"ysmart/internal/plan"
)

// OpKind classifies an operation node.
type OpKind int

// Operation kinds. Selection and projection are not operations: they fold
// into the jobs of the operations around them (paper §V.A).
const (
	KindJoin OpKind = iota + 1
	KindAgg
	KindSort
)

func (k OpKind) String() string {
	switch k {
	case KindJoin:
		return "JOIN"
	case KindAgg:
		return "AGG"
	case KindSort:
		return "SORT"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Operation is one operation node of the plan: the unit that becomes a
// primitive MapReduce job under one-operation-to-one-job translation.
type Operation struct {
	// ID is the operation's 1-based post-order number after Rule 4 child
	// exchange — the job number a one-to-one translation would give it.
	ID   int
	Kind OpKind
	Join *plan.Join
	Agg  *plan.Aggregate
	Sort *plan.Sort
	// Inputs are the operation's data inputs in plan order (left to right).
	Inputs []*Input
	// Parent is the operation that consumes this one (nil for the root).
	Parent *Operation

	label string
}

// Node returns the underlying plan node.
func (o *Operation) Node() plan.Node {
	switch o.Kind {
	case KindJoin:
		return o.Join
	case KindAgg:
		return o.Agg
	default:
		return o.Sort
	}
}

// Name renders a stable label like "JOIN2" or "AGG1" (numbered per kind in
// plan order, matching the paper's figures).
func (o *Operation) Name() string { return o.label }

// Input is one input of an operation: either another operation or a base
// table scan, plus the transparent chain (Filter/Project/Rebind/Limit
// nodes) between them, ordered top-down (nearest the operation first).
type Input struct {
	Op    *Operation
	Scan  *plan.Scan
	Chain []plan.Node
}

// IsTable reports whether the input is a base-table scan.
func (in *Input) IsTable() bool { return in.Scan != nil }

// Analysis is the result of analyzing a plan.
type Analysis struct {
	// Ops lists every operation in post-order (children before parents,
	// with Rule 4 exchange applied), i.e. one-to-one job submission order.
	Ops []*Operation
	// RootOp is the topmost operation; nil when the plan has none (a pure
	// selection-projection query).
	RootOp *Operation
	// TopChain holds the transparent nodes above the root operation (or the
	// whole plan when RootOp is nil), ordered top-down.
	TopChain []plan.Node
	// RootInput is the full root descent: its Op/Scan is what TopChain
	// leads to (for a pure SP query, the base-table scan).
	RootInput *Input
	// Required maps every plan node to the output columns its ancestors
	// consume (see plan.RequiredColumns).
	Required map[plan.Node][]int

	root plan.Node
	pks  map[*Operation]plan.PartKey
}

// Root returns the analyzed plan's root node — the full logical plan,
// including the transparent nodes above RootOp. Consumers that need a
// canonical rendering of the whole query (e.g. sub-plan fingerprinting in
// internal/reuse) read it here.
func (a *Analysis) Root() plan.Node { return a.root }

// Analyze extracts operations, chooses aggregation partition keys with the
// max-connection heuristic (paper §IV.A), and numbers operations.
func Analyze(root plan.Node) (*Analysis, error) {
	a := &Analysis{root: root, pks: make(map[*Operation]plan.PartKey)}
	req, err := plan.RequiredColumns(root)
	if err != nil {
		return nil, err
	}
	a.Required = req

	input := a.extract(root, nil)
	a.RootInput = input
	a.TopChain = input.Chain
	a.RootOp = input.Op
	if a.RootOp == nil {
		return a, nil // pure SP query
	}

	a.collectOps()
	a.choosePartitionKeys()
	a.assignLabels()
	a.numberPostOrder()
	return a, nil
}

// extract walks down through transparent nodes to the next operation or
// scan, building the chain top-down.
func (a *Analysis) extract(n plan.Node, chain []plan.Node) *Input {
	switch x := n.(type) {
	case *plan.Scan:
		return &Input{Scan: x, Chain: chain}
	case *plan.Filter:
		return a.extract(x.Child, append(chain, x))
	case *plan.Project:
		return a.extract(x.Child, append(chain, x))
	case *plan.Rebind:
		return a.extract(x.Child, append(chain, x))
	case *plan.Limit:
		return a.extract(x.Child, append(chain, x))
	case *plan.Join:
		op := &Operation{Kind: KindJoin, Join: x}
		op.Inputs = []*Input{
			a.extract(x.Left, nil),
			a.extract(x.Right, nil),
		}
		a.adopt(op)
		return &Input{Op: op, Chain: chain}
	case *plan.Aggregate:
		op := &Operation{Kind: KindAgg, Agg: x}
		op.Inputs = []*Input{a.extract(x.Child, nil)}
		a.adopt(op)
		return &Input{Op: op, Chain: chain}
	case *plan.Sort:
		op := &Operation{Kind: KindSort, Sort: x}
		op.Inputs = []*Input{a.extract(x.Child, nil)}
		a.adopt(op)
		return &Input{Op: op, Chain: chain}
	default:
		// Unreachable with the current node set; treat as opaque leaf.
		return &Input{Chain: chain}
	}
}

func (a *Analysis) adopt(op *Operation) {
	for _, in := range op.Inputs {
		if in.Op != nil {
			in.Op.Parent = op
		}
	}
}

// collectOps fills Ops in natural post-order (before Rule 4 exchange).
func (a *Analysis) collectOps() {
	var walk func(op *Operation)
	walk = func(op *Operation) {
		for _, in := range op.Inputs {
			if in.Op != nil {
				walk(in.Op)
			}
		}
		a.Ops = append(a.Ops, op)
	}
	walk(a.RootOp)
}

// choosePartitionKeys fixes join partition keys and runs the heuristic for
// aggregations: among an aggregation's candidates (non-empty subsets of its
// grouping columns, in plan.Aggregate.CandidatePKs order), pick the one
// whose partition key matches the largest number of other operations. Two
// passes let aggregation choices reinforce each other; ties keep the
// earliest (smallest) candidate. Each aggregation's key components are
// built once, for all its grouping columns, and every candidate's key
// indexes into them.
func (a *Analysis) choosePartitionKeys() {
	for _, op := range a.Ops {
		if op.Kind == KindJoin {
			a.pks[op] = op.Join.PartKey()
		}
	}
	comps := make(map[*Operation]plan.PartKey)
	for pass := 0; pass < 2; pass++ {
		for _, op := range a.Ops {
			if op.Kind != KindAgg {
				continue
			}
			n := len(op.Agg.GroupBy)
			if n == 0 {
				delete(a.pks, op) // global aggregation: no partition key
				continue
			}
			all, ok := comps[op]
			if !ok {
				cols := make([]int, n)
				for i := range cols {
					cols[i] = i
				}
				all = op.Agg.PartKeyFor(cols)
				comps[op] = all
			}
			best := a.bestCandidate(op, all)
			op.Agg.PKChoice = best
			a.pks[op] = keyOf(all, best, nil)
		}
	}
}

// bestCandidate runs the heuristic for one aggregation whose grouping
// columns have the key components all. A candidate scores one for every
// operation it would connect; only operations that can actually form a
// correlation with op count: operations sharing an input table (IC, the
// precondition of TC) and op's parent and input operations (the endpoints
// of JFC).
//
// Keys of different sizes never match (plan.PartKey.Equal), so a candidate
// of a size no partner's key has scores 0 and cannot displace the first
// candidate: those sizes are never enumerated. The 2^n subsets of n
// grouping columns would otherwise let one hostile GROUP BY stall the
// front end.
func (a *Analysis) bestCandidate(op *Operation, all plan.PartKey) []int {
	var partners []plan.PartKey
	sizes := make([]bool, len(all)+1)
	for _, other := range a.Ops {
		if other == op || !a.canCorrelate(op, other) {
			continue
		}
		if pk, ok := a.pks[other]; ok {
			partners = append(partners, pk)
			if len(pk) < len(sizes) {
				sizes[len(pk)] = true
			}
		}
	}
	best, bestScore := []int{0}, 0
	key := make(plan.PartKey, 0, len(all))
	for size := 1; size < len(sizes); size++ {
		if !sizes[size] {
			continue
		}
		eachSubset(len(all), size, func(cand []int) {
			key = keyOf(all, cand, key[:0])
			score := 0
			for _, pk := range partners {
				if key.Equal(pk) {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = append([]int(nil), cand...), score
			}
		})
	}
	return best
}

// keyOf appends to dst the key components of a candidate's grouping
// columns.
func keyOf(all plan.PartKey, cand []int, dst plan.PartKey) plan.PartKey {
	for _, gi := range cand {
		dst = append(dst, all[gi])
	}
	return dst
}

// eachSubset calls fn with every size-element subset of 0..n-1, as ascending
// indices, in ascending order of the subset's bit mask — the order
// plan.Aggregate.CandidatePKs lists one size in. fn must not keep the slice.
func eachSubset(n, size int, fn func([]int)) {
	c := make([]int, size)
	for i := range c {
		c[i] = i
	}
	for {
		fn(c)
		// The next mask moves up the lowest element that has room, and packs
		// the elements below it back at the bottom.
		j := 0
		for j < size {
			next := n
			if j+1 < size {
				next = c[j+1]
			}
			if c[j]+1 < next {
				break
			}
			j++
		}
		if j == size {
			return
		}
		c[j]++
		for i := 0; i < j; i++ {
			c[i] = i
		}
	}
}

// canCorrelate reports whether x and y could have any of the three
// correlations, independent of partition keys.
func (a *Analysis) canCorrelate(x, y *Operation) bool {
	if a.InputCorrelated(x, y) {
		return true
	}
	if x.Parent == y || y.Parent == x {
		return true
	}
	return false
}

// assignLabels numbers operations per kind in post-order, matching the
// paper's JOIN1/AGG1 naming.
func (a *Analysis) assignLabels() {
	counts := map[OpKind]int{}
	for _, op := range a.Ops {
		counts[op.Kind]++
		op.label = fmt.Sprintf("%v%d", op.Kind, counts[op.Kind])
	}
}

// numberPostOrder assigns job IDs in post-order with Rule 4 child exchange:
// for a join with job-flow correlation to exactly one input operation, the
// other input's subtree is visited first so its job completes earlier
// (paper §V.B Rule 4).
func (a *Analysis) numberPostOrder() {
	id := 0
	var walk func(op *Operation)
	walk = func(op *Operation) {
		inputs := append([]*Input(nil), op.Inputs...)
		if op.Kind == KindJoin && len(inputs) == 2 && inputs[0].Op != nil && inputs[1].Op != nil {
			jfc0 := a.JobFlowCorrelated(op, inputs[0].Op)
			jfc1 := a.JobFlowCorrelated(op, inputs[1].Op)
			if jfc0 && !jfc1 {
				inputs[0], inputs[1] = inputs[1], inputs[0]
			}
		}
		for _, in := range inputs {
			if in.Op != nil {
				walk(in.Op)
			}
		}
		id++
		op.ID = id
	}
	walk(a.RootOp)
	sort.Slice(a.Ops, func(i, j int) bool { return a.Ops[i].ID < a.Ops[j].ID })
}

// PK returns the operation's partition key, or nil when it has none
// (global aggregations, sorts).
func (a *Analysis) PK(op *Operation) plan.PartKey { return a.pks[op] }

// OverridePK replaces an aggregation's partition-key choice with another
// candidate (indices into its grouping columns). It exists for ablation
// studies of the selection heuristic; translation respects the override.
func (a *Analysis) OverridePK(op *Operation, candidate []int) error {
	if op.Kind != KindAgg {
		return fmt.Errorf("only aggregation partition keys can be overridden")
	}
	if len(candidate) == 0 || len(candidate) > len(op.Agg.GroupBy) {
		return fmt.Errorf("candidate %v out of range for %d grouping columns", candidate, len(op.Agg.GroupBy))
	}
	for _, gi := range candidate {
		if gi < 0 || gi >= len(op.Agg.GroupBy) {
			return fmt.Errorf("candidate index %d out of range", gi)
		}
	}
	op.Agg.PKChoice = append([]int(nil), candidate...)
	a.pks[op] = op.Agg.PartKeyFor(candidate)
	return nil
}

// InputTables returns the physical tables the operation's job scans
// directly (inputs that are base tables, not other operations).
func (a *Analysis) InputTables(op *Operation) map[string]bool {
	out := make(map[string]bool)
	for _, in := range op.Inputs {
		if in.Scan != nil {
			out[in.Scan.Table] = true
		}
	}
	return out
}

// InputCorrelated reports input correlation: the two operations' input
// relation sets are not disjoint (paper §IV.A definition 1).
func (a *Analysis) InputCorrelated(x, y *Operation) bool {
	tx, ty := a.InputTables(x), a.InputTables(y)
	for t := range tx {
		if ty[t] {
			return true
		}
	}
	return false
}

// TransitCorrelated reports transit correlation: input correlation plus the
// same partition key (definition 2).
func (a *Analysis) TransitCorrelated(x, y *Operation) bool {
	if !a.InputCorrelated(x, y) {
		return false
	}
	px, py := a.pks[x], a.pks[y]
	if px == nil || py == nil {
		return false
	}
	return px.Equal(py)
}

// JobFlowCorrelated reports job-flow correlation: child is an input
// operation of parent and they share the partition key (definition 3).
func (a *Analysis) JobFlowCorrelated(parent, child *Operation) bool {
	isChild := false
	for _, in := range parent.Inputs {
		if in.Op == child {
			isChild = true
		}
	}
	if !isChild {
		return false
	}
	pp, pc := a.pks[parent], a.pks[child]
	if pp == nil || pc == nil {
		return false
	}
	return pp.Equal(pc)
}

// Report renders a human-readable correlation summary for explain output.
func (a *Analysis) Report() string {
	var sb strings.Builder
	if a.RootOp == nil {
		sb.WriteString("no operations (selection/projection only)\n")
		return sb.String()
	}
	for _, op := range a.Ops {
		pk := "none"
		if k, ok := a.pks[op]; ok {
			pk = k.String()
		}
		fmt.Fprintf(&sb, "%-6s job#%d  pk=%s  %s\n", op.Name(), op.ID, pk, op.Node().Describe())
	}
	for i, x := range a.Ops {
		for _, y := range a.Ops[i+1:] {
			switch {
			case a.TransitCorrelated(x, y):
				fmt.Fprintf(&sb, "TC  %s ~ %s\n", x.Name(), y.Name())
			case a.InputCorrelated(x, y):
				fmt.Fprintf(&sb, "IC  %s ~ %s\n", x.Name(), y.Name())
			}
		}
	}
	for _, op := range a.Ops {
		for _, in := range op.Inputs {
			if in.Op != nil && a.JobFlowCorrelated(op, in.Op) {
				fmt.Fprintf(&sb, "JFC %s <- %s\n", op.Name(), in.Op.Name())
			}
		}
	}
	return sb.String()
}
