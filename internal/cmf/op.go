package cmf

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"ysmart/internal/exec"
	"ysmart/internal/sqlparser"
)

// Source names where an operator's input rows come from: either a mapper
// stream (a merged job's map output) or the per-key results of another
// operator in the same common job (a post-job computation input).
type Source struct {
	Stream int    // valid when Op == ""
	Op     string // non-empty for post-job inputs
}

// StreamSource references mapper stream id.
func StreamSource(id int) Source { return Source{Stream: id} }

// OpSource references another operator's results.
func OpSource(name string) Source { return Source{Op: name} }

// IsOp reports whether the source is another operator.
func (s Source) IsOp() bool { return s.Op != "" }

// String renders the source for diagnostics and DOT labels.
func (s Source) String() string {
	if s.IsOp() {
		return "op:" + s.Op
	}
	return fmt.Sprintf("stream:%d", s.Stream)
}

// Op is one operator of a common job's per-key dataflow. Operators are
// evaluated once per reduce key over the rows of that key group.
type Op interface {
	// Name identifies the operator inside the job.
	Name() string
	// Sources lists the operator's inputs.
	Sources() []Source
	// Eval computes the operator's result rows for one key group. inputs
	// holds the rows of each source in Sources() order. Result rows may be
	// carved from a, the evaluating reducer instance's arena, and are then
	// only valid until its next key group.
	Eval(a *arena, inputs [][]exec.Row) ([]exec.Row, error)
}

// ---------------------------------------------------------------------------
// JoinOp
// ---------------------------------------------------------------------------

// JoinOp joins two inputs within a key group. Because merged jobs share the
// partition key, the equi-join condition is already satisfied by key
// equality; only the residual predicate remains to be checked per pair
// (paper §IV.B: "join with the same partition").
type JoinOp struct {
	OpName      string
	Left, Right Source
	// LeftWidth/RightWidth are the input row widths, used for null
	// extension in outer joins.
	LeftWidth, RightWidth int
	Type                  sqlparser.JoinType
	// Residual, if non-nil, must pass for a pair to match; it sees the
	// concatenated (left ++ right) row.
	Residual exec.Predicate
}

// Name implements Op.
func (j *JoinOp) Name() string { return j.OpName }

// Sources implements Op.
func (j *JoinOp) Sources() []Source { return []Source{j.Left, j.Right} }

// Eval implements Op. It runs in two passes: the first tests the residual
// on every candidate pair — in one scratch row, so a rejected pair costs
// nothing — and records which (left, right) pairs the output holds, -1
// standing for an outer join's NULL side; the second copies exactly those
// rows out of one exactly-sized carving of the arena.
func (j *JoinOp) Eval(a *arena, inputs [][]exec.Row) ([]exec.Row, error) {
	left, right := inputs[0], inputs[1]
	leftOuter := j.Type == sqlparser.LeftOuterJoin || j.Type == sqlparser.FullOuterJoin
	rightOuter := j.Type == sqlparser.RightOuterJoin || j.Type == sqlparser.FullOuterJoin

	var rightMatched []bool
	if rightOuter {
		rightMatched = make([]bool, len(right))
	}
	pairs := a.ints[:0] // (left index, right index), in output order
	values := 0         // total width of the output rows
	var scratch exec.Row
	for li, l := range left {
		before := len(pairs)
		for ri, r := range right {
			if j.Residual != nil {
				if len(scratch) != len(l)+len(r) {
					scratch = a.vals.take(len(l) + len(r))
				}
				copy(scratch[copy(scratch, l):], r)
				ok, err := j.Residual(scratch)
				if err != nil {
					return nil, fmt.Errorf("join %s residual: %w", j.OpName, err)
				}
				if !ok {
					continue
				}
			}
			if rightOuter {
				rightMatched[ri] = true
			}
			pairs = append(pairs, li, ri)
			values += len(l) + len(r)
		}
		if len(pairs) == before && leftOuter {
			pairs = append(pairs, li, -1)
			values += len(l) + j.RightWidth
		}
	}
	for ri, matched := range rightMatched {
		if !matched {
			pairs = append(pairs, -1, ri)
			values += j.LeftWidth + len(right[ri])
		}
	}
	a.ints = pairs // keeps what the list grew to
	if len(pairs) == 0 {
		return nil, nil
	}

	var leftNull, rightNull exec.Row
	if rightOuter {
		leftNull = nulls(a.vals.take(j.LeftWidth))
	}
	if leftOuter {
		rightNull = nulls(a.vals.take(j.RightWidth))
	}
	out := a.rows.take(len(pairs) / 2)
	slab := a.vals.take(values)
	for i := range out {
		l, r := leftNull, rightNull
		if li := pairs[2*i]; li >= 0 {
			l = left[li]
		}
		if ri := pairs[2*i+1]; ri >= 0 {
			r = right[ri]
		}
		// Capped at its own width, so an append to one row can never
		// write into the next.
		n := len(l) + len(r)
		out[i], slab = slab[:n:n], slab[n:]
		copy(out[i][copy(out[i], l):], r)
	}
	return out, nil
}

// nulls fills r with NULLs and returns it.
func nulls(r exec.Row) exec.Row {
	for i := range r {
		r[i] = exec.Null()
	}
	return r
}

// ---------------------------------------------------------------------------
// AggOp
// ---------------------------------------------------------------------------

// AggFunc is one aggregate computed by an AggOp.
type AggFunc struct {
	Kind exec.AggKind
	// Arg computes the aggregate input from a row; nil for COUNT(*).
	Arg exec.Evaluator
}

// AggOp groups its input rows (within the key group) by the GroupBy columns
// and computes aggregates. Its output rows are the group values followed by
// the aggregate results. Merged aggregations are correct because job-flow
// correlation guarantees the reduce partition key is a subset of the
// grouping columns (paper §IV.A scenario 1).
type AggOp struct {
	OpName string
	In     Source
	// GroupBy computes the grouping values from an input row; empty means a
	// single (global-within-key) group.
	GroupBy []exec.Evaluator
	Aggs    []AggFunc
	// Partials, when set, switches the op to merge combiner-produced partial
	// rows instead of raw rows, and is their schema: the group values, then
	// each aggregate's partial fields as exec.Acc.AppendPartial lays them
	// out. The reducer decodes its input by it.
	Partials *exec.Schema
}

// Name implements Op.
func (a *AggOp) Name() string { return a.OpName }

// Sources implements Op.
func (a *AggOp) Sources() []Source { return []Source{a.In} }

// aggGroup is one aggregation group of an AggOp key group. Its row starts
// as its group values, with room for the results.
type aggGroup struct {
	key   string
	keyed bool // false only for the first group until a second one opens
	row   exec.Row
}

// Eval implements Op. Nothing it builds per key group comes from the heap
// once the arena is warm: the group rows and the output slice are carved
// from the arena; the accumulators are its scratch, reset in place, so a
// COUNT(DISTINCT) reuses a set an earlier group left there rather than
// building one per group; the group list and the group index are scratch
// handed back cleared, and the group keys are cut from its key chunks. A
// row whose group values are identical to the current group's —
// same types, same bits, hence the same encoding — is that group's without
// rendering its key; any other row renders the key (exec.AppendKey) and
// looks it up, so NaN payloads group by their encodings and -0.0 joins
// 0.0's group.
func (a *AggOp) Eval(ar *arena, inputs [][]exec.Row) ([]exec.Row, error) {
	rows := inputs[0]
	if a.Partials != nil {
		return a.evalFromPartials(ar, rows)
	}
	nGroup, nAggs := len(a.GroupBy), len(a.Aggs)
	// A global aggregate over zero rows still yields one row (SQL
	// semantics); grouped aggregates yield no rows.
	if len(rows) == 0 && nGroup == 0 {
		row := ar.vals.take(nAggs)
		for i, spec := range a.Aggs {
			acc := exec.NewAcc(spec.Kind)
			row[i] = acc.Result()
		}
		out := ar.rows.take(1)
		out[0] = row
		return out, nil
	}

	// Group i's accumulators are accs[i*nAggs:(i+1)*nAggs].
	groups := ar.groups[:0]
	accs := ar.accs[:0]
	// index finds a group by key once there are several; a key group's
	// rows mostly share one aggregation group, which cur remembers. The
	// arena gets it back empty, so an Eval that fails drops it.
	index := ar.index
	ar.index = nil
	cur := -1
	// Group values and their key are computed in scratch space and only
	// copied when a row opens a new group.
	var valBuf [8]exec.Value
	var keyBuf [64]byte
	keyOf := func(g *aggGroup) string {
		if !g.keyed {
			var buf [64]byte
			g.key, g.keyed = ar.keys.cut(exec.AppendKey(buf[:0], g.row[:nGroup])), true
		}
		return g.key
	}
	for _, r := range rows {
		gvals := valBuf[:0]
		for _, fn := range a.GroupBy {
			v, err := fn(r)
			if err != nil {
				return nil, fmt.Errorf("agg %s group: %w", a.OpName, err)
			}
			gvals = append(gvals, v)
		}
		if cur < 0 || !identical(gvals, groups[cur].row[:nGroup]) {
			key := exec.AppendKey(keyBuf[:0], gvals)
			if cur < 0 || keyOf(&groups[cur]) != string(key) {
				var ok bool
				if cur, ok = index[string(key)]; !ok {
					cur = len(groups)
					row := ar.vals.take(nGroup + nAggs)
					copy(row, gvals)
					g := aggGroup{row: row}
					if cur > 0 {
						g.key, g.keyed = ar.keys.cut(key), true
					}
					accs = appendAccs(accs, a.Aggs)
					groups = append(groups, g)
					if cur == 1 {
						if index == nil {
							index = make(map[string]int)
						}
						index[keyOf(&groups[0])] = 0
					}
					if cur > 0 {
						index[g.key] = cur
					}
				}
			}
		}
		ga := accs[cur*nAggs : (cur+1)*nAggs]
		for i, spec := range a.Aggs {
			if spec.Arg == nil {
				ga[i].Add(exec.Int(1))
				continue
			}
			v, err := spec.Arg(r)
			if err != nil {
				return nil, fmt.Errorf("agg %s arg: %w", a.OpName, err)
			}
			ga[i].Add(v)
		}
	}
	for i, g := range groups {
		for k := range a.Aggs {
			g.row[nGroup+k] = accs[i*nAggs+k].Result()
		}
	}
	if len(groups) > 1 {
		slices.SortFunc(groups, func(x, y aggGroup) int { return strings.Compare(x.key, y.key) })
	}
	out := ar.rows.take(len(groups))
	for i, g := range groups {
		out[i] = g.row
	}
	// Handed back grown: the accumulators with the COUNT(DISTINCT) sets
	// their resets keep, the groups and index with no group key alive.
	clear(groups)
	clear(index)
	ar.accs, ar.groups, ar.index = accs[:0], groups[:0], index
	return out, nil
}

// appendAccs extends accs by one empty accumulator per aggregate. They are
// reset in place within accs' capacity, so an accumulator reused from an
// earlier group or Eval keeps its COUNT(DISTINCT) set (exec.Acc.Reset).
func appendAccs(accs []exec.Acc, aggs []AggFunc) []exec.Acc {
	n := len(accs)
	accs = slices.Grow(accs, len(aggs))[:n+len(aggs)]
	for i, spec := range aggs {
		accs[n+i].Reset(spec.Kind)
	}
	return accs
}

// identical reports whether two value lists are the same values bit for
// bit, which implies the same codec encoding.
func identical(a, b []exec.Value) bool {
	for i := range a {
		x, y := &a[i], &b[i]
		if x.T != y.T {
			return false
		}
		switch x.T {
		case exec.TypeInt:
			if x.I != y.I {
				return false
			}
		case exec.TypeFloat:
			if math.Float64bits(x.F) != math.Float64bits(y.F) {
				return false
			}
		case exec.TypeString:
			if x.S != y.S {
				return false
			}
		case exec.TypeBool:
			if x.B != y.B {
				return false
			}
		}
	}
	return true
}

// evalFromPartials merges partial rows (see partial.go) that all belong to
// one final group: the reduce key of a combined aggregation job is the full
// grouping key, so every partial row in the group shares its group values.
// Each row has the width of a.Partials, by which the reducer decoded it.
func (a *AggOp) evalFromPartials(ar *arena, rows []exec.Row) ([]exec.Row, error) {
	nGroup := len(a.GroupBy)
	if len(rows) == 0 && nGroup > 0 {
		return nil, nil // no group; a global aggregate still yields its row
	}
	accs := appendAccs(ar.accs[:0], a.Aggs)
	ar.accs = accs[:0]
	for _, r := range rows {
		off := nGroup
		for i, spec := range a.Aggs {
			w := spec.Kind.PartialWidth()
			if err := accs[i].MergePartial(r[off : off+w]); err != nil {
				return nil, fmt.Errorf("agg %s: %w", a.OpName, err)
			}
			off += w
		}
	}
	row := ar.vals.take(nGroup + len(a.Aggs))
	if nGroup > 0 {
		copy(row, rows[0][:nGroup])
	}
	for i := range accs {
		row[nGroup+i] = accs[i].Result()
	}
	out := ar.rows.take(1)
	out[0] = row
	return out, nil
}

// ---------------------------------------------------------------------------
// FilterOp, ProjectOp, SortOp
// ---------------------------------------------------------------------------

// FilterOp keeps input rows passing Pred.
type FilterOp struct {
	OpName string
	In     Source
	Pred   exec.Predicate
}

// Name implements Op.
func (f *FilterOp) Name() string { return f.OpName }

// Sources implements Op.
func (f *FilterOp) Sources() []Source { return []Source{f.In} }

// Eval implements Op.
func (f *FilterOp) Eval(a *arena, inputs [][]exec.Row) ([]exec.Row, error) {
	rows := inputs[0]
	out := a.rows.take(len(rows))[:0]
	for _, r := range rows {
		ok, err := f.Pred(r)
		if err != nil {
			return nil, fmt.Errorf("filter %s: %w", f.OpName, err)
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// ProjectOp computes expression columns over each input row.
type ProjectOp struct {
	OpName string
	In     Source
	Exprs  []exec.Evaluator
}

// Name implements Op.
func (p *ProjectOp) Name() string { return p.OpName }

// Sources implements Op.
func (p *ProjectOp) Sources() []Source { return []Source{p.In} }

// Eval implements Op.
func (p *ProjectOp) Eval(a *arena, inputs [][]exec.Row) ([]exec.Row, error) {
	rows := inputs[0]
	out := a.rows.take(len(rows))[:0]
	// One carving for the whole group's projected rows; each row is capped
	// at its own width so an append to one cannot reach the next.
	w := len(p.Exprs)
	slab := a.vals.take(len(rows) * w)
	for ri, r := range rows {
		pr := exec.Row(slab[ri*w : (ri+1)*w : (ri+1)*w])
		for i, fn := range p.Exprs {
			v, err := fn(r)
			if err != nil {
				return nil, fmt.Errorf("project %s: %w", p.OpName, err)
			}
			pr[i] = v
		}
		out = append(out, pr)
	}
	return out, nil
}

// SortKey is one ordering key of a SortOp.
type SortKey struct {
	Fn   exec.Evaluator
	Desc bool
}

// SortOp orders its input rows. It is used in single-reduce-task SORT jobs
// where the key group contains the whole data set.
type SortOp struct {
	OpName string
	In     Source
	Keys   []SortKey
	// Limit keeps only the first Limit rows after sorting (0 = all).
	Limit int
}

// Name implements Op.
func (s *SortOp) Name() string { return s.OpName }

// Sources implements Op.
func (s *SortOp) Sources() []Source { return []Source{s.In} }

// Eval implements Op.
func (s *SortOp) Eval(a *arena, inputs [][]exec.Row) ([]exec.Row, error) {
	rows := inputs[0]
	out := make([]exec.Row, len(rows))
	copy(out, rows)
	var evalErr error
	sort.SliceStable(out, func(i, k int) bool {
		for _, key := range s.Keys {
			vi, err := key.Fn(out[i])
			if err != nil {
				evalErr = err
				return false
			}
			vk, err := key.Fn(out[k])
			if err != nil {
				evalErr = err
				return false
			}
			c := exec.Compare(vi, vk)
			if c == 0 {
				continue
			}
			if key.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	if evalErr != nil {
		return nil, fmt.Errorf("sort %s: %w", s.OpName, evalErr)
	}
	if s.Limit > 0 && len(out) > s.Limit {
		out = out[:s.Limit]
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Graph evaluation
// ---------------------------------------------------------------------------

// graph is a common job's operator dataflow compiled once at Build: the
// operators in evaluation order, every Source resolved to an integer slot.
// Slots [0, nStreams) hold a key group's rows per mapper stream and slot
// nStreams+i holds the result of ops[i], so evaluating a key group indexes
// slices and builds no maps. A graph is immutable once compiled, which is
// what lets the reducer instances of one cached plan share it.
type graph struct {
	ops      []graphOp
	nStreams int
	nSources int // sources summed over ops: the size of eval's input scratch
}

type graphOp struct {
	op   Op
	srcs []int // slot of each of op.Sources(), in order
	// relational marks the operators whose consumed rows count as reduce
	// work (the quantity the cost model charges for the common reducer
	// "executing more lines of code" than a single-operation reducer, paper
	// §VII.C). Chain filters and projections are the column-level plumbing
	// a one-to-one translation runs, uncounted, in its map phases.
	relational bool
}

// compileGraph orders ops so that every operator follows its inputs
// (depth-first from each op in turn, so independent operators keep their
// declaration order) and resolves sources to slots. streamIDs lists the
// mapper streams in slot order.
func compileGraph(ops []Op, streamIDs []int) (*graph, error) {
	streamSlot := make(map[int]int, len(streamIDs))
	for slot, id := range streamIDs {
		streamSlot[id] = slot
	}
	byName := make(map[string]Op, len(ops))
	for _, op := range ops {
		if _, dup := byName[op.Name()]; dup {
			return nil, fmt.Errorf("duplicate op %q", op.Name())
		}
		byName[op.Name()] = op
	}
	g := &graph{nStreams: len(streamIDs)}
	opSlot := make(map[string]int, len(ops))
	visiting := make(map[string]bool, len(ops))
	var visit func(name string) error
	visit = func(name string) error {
		if _, done := opSlot[name]; done {
			return nil
		}
		if visiting[name] {
			return fmt.Errorf("op cycle through %q", name)
		}
		op, ok := byName[name]
		if !ok {
			return fmt.Errorf("unknown op %q", name)
		}
		visiting[name] = true
		sources := op.Sources()
		srcs := make([]int, len(sources))
		for i, s := range sources {
			if s.IsOp() {
				if err := visit(s.Op); err != nil {
					return err
				}
				srcs[i] = opSlot[s.Op]
				continue
			}
			slot, ok := streamSlot[s.Stream]
			if !ok {
				return fmt.Errorf("op %q reads unknown stream %d", name, s.Stream)
			}
			srcs[i] = slot
		}
		gop := graphOp{op: op, srcs: srcs}
		switch op.(type) {
		case *JoinOp, *AggOp, *SortOp:
			gop.relational = true
		}
		opSlot[name] = g.nStreams + len(g.ops)
		g.ops = append(g.ops, gop)
		g.nSources += len(srcs)
		return nil
	}
	for _, op := range ops {
		if err := visit(op.Name()); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// newSlots returns a slot table plus the scratch eval hands operators their
// inputs in (one allocation for both). A reducer instance clears and refills
// the table for every key group.
func (g *graph) newSlots() (slots, scratch [][]exec.Row) {
	n := g.nStreams + len(g.ops)
	buf := make([][]exec.Row, n+g.nSources)
	return buf[:n:n], buf[n:]
}

// eval runs the operators over one key group whose stream rows are already
// in slots (from newSlots), filling in every operator's result slot.
func (g *graph) eval(a *arena, slots, scratch [][]exec.Row) error {
	for i, gop := range g.ops {
		inputs := scratch[:len(gop.srcs):len(gop.srcs)]
		scratch = scratch[len(gop.srcs):]
		for k, slot := range gop.srcs {
			inputs[k] = slots[slot]
		}
		rows, err := gop.op.Eval(a, inputs)
		if err != nil {
			return err
		}
		slots[g.nStreams+i] = rows
	}
	return nil
}

// inRows is the number of rows op i consumed from slots, summed over its
// sources; its output count is len(slots[g.nStreams+i]).
func (g *graph) inRows(i int, slots [][]exec.Row) int64 {
	var n int64
	for _, slot := range g.ops[i].srcs {
		n += int64(len(slots[slot]))
	}
	return n
}
