package cmf

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"ysmart/internal/exec"
	"ysmart/internal/sqlparser"
)

func intRow(vals ...int64) exec.Row {
	r := make(exec.Row, len(vals))
	for i, v := range vals {
		r[i] = exec.Int(v)
	}
	return r
}

func col(i int) exec.Evaluator {
	return func(r exec.Row) (exec.Value, error) { return r[i], nil }
}

func TestJoinOpInner(t *testing.T) {
	j := &JoinOp{
		OpName: "j", Left: StreamSource(0), Right: StreamSource(1),
		LeftWidth: 2, RightWidth: 2, Type: sqlparser.InnerJoin,
	}
	streams := map[int][]exec.Row{
		0: {intRow(1, 10), intRow(1, 20)},
		1: {intRow(1, 100), intRow(1, 200)},
	}
	out, err := j.Eval(&arena{}, [][]exec.Row{streams[0], streams[1]})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("inner join rows = %d, want 4 (cross within key)", len(out))
	}
	if len(out[0]) != 4 {
		t.Errorf("row width = %d, want 4", len(out[0]))
	}
}

func TestJoinOpResidual(t *testing.T) {
	j := &JoinOp{
		OpName: "j", Left: StreamSource(0), Right: StreamSource(1),
		LeftWidth: 2, RightWidth: 2, Type: sqlparser.InnerJoin,
		Residual: func(r exec.Row) (bool, error) { return r[1].I < r[3].I, nil },
	}
	out, err := j.Eval(&arena{}, [][]exec.Row{
		{intRow(1, 10), intRow(1, 300)},
		{intRow(1, 100), intRow(1, 200)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// (10,100), (10,200) pass; 300 pairs fail.
	if len(out) != 2 {
		t.Fatalf("residual join rows = %d, want 2", len(out))
	}
}

func TestJoinOpOuterVariants(t *testing.T) {
	mk := func(typ sqlparser.JoinType) []exec.Row {
		j := &JoinOp{
			OpName: "j", Left: StreamSource(0), Right: StreamSource(1),
			LeftWidth: 1, RightWidth: 1, Type: typ,
			Residual: func(r exec.Row) (bool, error) {
				return !r[0].IsNull() && !r[1].IsNull() && r[0].I == r[1].I, nil
			},
		}
		out, err := j.Eval(&arena{}, [][]exec.Row{
			{intRow(1), intRow(2)},
			{intRow(2), intRow(3)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	if out := mk(sqlparser.InnerJoin); len(out) != 1 {
		t.Errorf("inner = %v, want 1 row", out)
	}
	left := mk(sqlparser.LeftOuterJoin)
	if len(left) != 2 {
		t.Fatalf("left outer = %v, want 2 rows", left)
	}
	foundNullExt := false
	for _, r := range left {
		if r[0].I == 1 && r[1].IsNull() {
			foundNullExt = true
		}
	}
	if !foundNullExt {
		t.Errorf("left outer missing null extension: %v", left)
	}
	if out := mk(sqlparser.RightOuterJoin); len(out) != 2 {
		t.Errorf("right outer = %v, want 2 rows", out)
	}
	if out := mk(sqlparser.FullOuterJoin); len(out) != 3 {
		t.Errorf("full outer = %v, want 3 rows", out)
	}
}

func TestJoinOpEmptySides(t *testing.T) {
	j := &JoinOp{
		OpName: "j", Left: StreamSource(0), Right: StreamSource(1),
		LeftWidth: 1, RightWidth: 1, Type: sqlparser.LeftOuterJoin,
	}
	// Left rows, empty right: all null-extended.
	out, err := j.Eval(&arena{}, [][]exec.Row{{intRow(1), intRow(2)}, nil})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || !out[0][1].IsNull() {
		t.Errorf("left outer with empty right = %v", out)
	}
	// Inner join with an empty side yields nothing.
	j.Type = sqlparser.InnerJoin
	out, err = j.Eval(&arena{}, [][]exec.Row{{intRow(1)}, nil})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("inner join with empty side = %v, want none", out)
	}
}

func TestAggOpGrouped(t *testing.T) {
	a := &AggOp{
		OpName: "a", In: StreamSource(0),
		GroupBy: []exec.Evaluator{col(0)},
		Aggs: []AggFunc{
			{Kind: exec.AggCountStar},
			{Kind: exec.AggSum, Arg: col(1)},
			{Kind: exec.AggMin, Arg: col(1)},
		},
	}
	out, err := a.Eval(&arena{}, [][]exec.Row{{
		intRow(1, 10), intRow(2, 5), intRow(1, 30), intRow(2, 7),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("groups = %d, want 2", len(out))
	}
	// Deterministic order by encoded group key: "1" then "2".
	if out[0][0].I != 1 || out[0][1].I != 2 || out[0][2].I != 40 || out[0][3].I != 10 {
		t.Errorf("group 1 = %v", out[0])
	}
	if out[1][0].I != 2 || out[1][2].I != 12 || out[1][3].I != 5 {
		t.Errorf("group 2 = %v", out[1])
	}
}

func TestAggOpGlobalEmptyInput(t *testing.T) {
	a := &AggOp{
		OpName: "a", In: StreamSource(0),
		Aggs: []AggFunc{{Kind: exec.AggCountStar}, {Kind: exec.AggSum, Arg: col(0)}},
	}
	out, err := a.Eval(&arena{}, [][]exec.Row{nil})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0][0].I != 0 || !out[0][1].IsNull() {
		t.Errorf("global agg over empty input = %v, want [0 NULL]", out)
	}
	// So does one merging a combiner's partials, of which there are none.
	a.Partials = ints(2)
	out, err = a.Eval(&arena{}, [][]exec.Row{nil})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0][0].I != 0 || !out[0][1].IsNull() {
		t.Errorf("global agg over no partials = %v, want [0 NULL]", out)
	}

	// Grouped aggregates over empty input yield no rows.
	a.GroupBy = []exec.Evaluator{col(0)}
	for _, partials := range []*exec.Schema{nil, ints(3)} {
		a.Partials = partials
		out, err = a.Eval(&arena{}, [][]exec.Row{nil})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 0 {
			t.Errorf("grouped agg (partials %v) over empty input = %v, want none", partials != nil, out)
		}
	}
}

func TestAggOpCountDistinct(t *testing.T) {
	a := &AggOp{
		OpName: "a", In: StreamSource(0),
		GroupBy: []exec.Evaluator{col(0)},
		Aggs:    []AggFunc{{Kind: exec.AggCountDistinct, Arg: col(1)}, {Kind: exec.AggMax, Arg: col(1)}},
	}
	out, err := a.Eval(&arena{}, [][]exec.Row{{
		intRow(1, 5), intRow(1, 5), intRow(1, 9),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0][1].I != 2 || out[0][2].I != 9 {
		t.Errorf("count distinct = %v, want [1 2 9]", out)
	}
}

func TestFilterProjectSortOps(t *testing.T) {
	filter := &FilterOp{
		OpName: "f", In: StreamSource(0),
		Pred: func(r exec.Row) (bool, error) { return r[0].I > 1, nil },
	}
	project := &ProjectOp{
		OpName: "p", In: OpSource("f"),
		Exprs: []exec.Evaluator{col(1), func(r exec.Row) (exec.Value, error) {
			return exec.Int(r[0].I * 10), nil
		}},
	}
	sortOp := &SortOp{
		OpName: "s", In: OpSource("p"),
		Keys: []SortKey{{Fn: col(0), Desc: true}},
	}
	streams := map[int][]exec.Row{
		0: {intRow(1, 100), intRow(2, 300), intRow(3, 200)},
	}
	results, _, err := runGraph([]Op{filter, project, sortOp}, streams)
	if err != nil {
		t.Fatal(err)
	}
	if len(results["f"]) != 2 {
		t.Errorf("filter = %v", results["f"])
	}
	s := results["s"]
	if len(s) != 2 || s[0][0].I != 300 || s[1][0].I != 200 {
		t.Errorf("sorted = %v, want [[300 20] [200 30]]", s)
	}
}

func TestSortOpLimit(t *testing.T) {
	s := &SortOp{
		OpName: "s", In: StreamSource(0),
		Keys:  []SortKey{{Fn: col(0)}},
		Limit: 2,
	}
	out, err := s.Eval(&arena{}, [][]exec.Row{{intRow(3), intRow(1), intRow(2)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0][0].I != 1 || out[1][0].I != 2 {
		t.Errorf("limited sort = %v", out)
	}
}

func TestCompileGraphErrors(t *testing.T) {
	pass := func(exec.Row) (bool, error) { return true, nil }
	// Unknown op source.
	_, err := compileGraph([]Op{&FilterOp{OpName: "f", In: OpSource("missing"), Pred: pass}}, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("err = %v, want unknown op", err)
	}
	// Unknown stream source.
	_, err = compileGraph([]Op{&FilterOp{OpName: "f", In: StreamSource(3), Pred: pass}}, []int{0})
	if err == nil || !strings.Contains(err.Error(), "unknown stream") {
		t.Errorf("err = %v, want unknown stream", err)
	}
	// Cycle.
	a := &FilterOp{OpName: "a", In: OpSource("b"), Pred: pass}
	b := &FilterOp{OpName: "b", In: OpSource("a"), Pred: pass}
	_, err = compileGraph([]Op{a, b}, nil)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("err = %v, want cycle", err)
	}
	// Duplicate names.
	_, err = compileGraph([]Op{a, a}, nil)
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("err = %v, want duplicate", err)
	}
}

// ---------------------------------------------------------------------------
// The compiled graph against its map-based predecessor
// ---------------------------------------------------------------------------

// evalStats is the accounting of one graph evaluation: billable work plus
// per-operator in/out row counts.
type evalStats struct {
	Work    int64
	InRows  map[string]int64
	OutRows map[string]int64
}

// evalGraph is the evaluator the compiled graph replaced, kept verbatim as
// its reference: names resolved through maps and a recursive walk, anew
// for every key group. Cycles, unknown and duplicate operators surface
// here at evaluation; the compiled graph reports the same errors at Build.
func evalGraph(ops []Op, streams map[int][]exec.Row) (map[string][]exec.Row, evalStats, error) {
	stats := evalStats{
		InRows:  make(map[string]int64, len(ops)),
		OutRows: make(map[string]int64, len(ops)),
	}
	byName := make(map[string]Op, len(ops))
	for _, op := range ops {
		if _, dup := byName[op.Name()]; dup {
			return nil, stats, fmt.Errorf("duplicate op %q", op.Name())
		}
		byName[op.Name()] = op
	}
	results := make(map[string][]exec.Row, len(ops))
	state := make(map[string]int, len(ops)) // 1 visiting, 2 done

	var eval func(name string) error
	eval = func(name string) error {
		switch state[name] {
		case 2:
			return nil
		case 1:
			return fmt.Errorf("op cycle through %q", name)
		}
		op, ok := byName[name]
		if !ok {
			return fmt.Errorf("unknown op %q", name)
		}
		state[name] = 1
		srcs := op.Sources()
		inputs := make([][]exec.Row, len(srcs))
		for i, s := range srcs {
			if s.IsOp() {
				if err := eval(s.Op); err != nil {
					return err
				}
				inputs[i] = results[s.Op]
			} else {
				inputs[i] = streams[s.Stream]
			}
			stats.InRows[name] += int64(len(inputs[i]))
			switch op.(type) {
			case *JoinOp, *AggOp, *SortOp:
				stats.Work += int64(len(inputs[i]))
			}
		}
		rows, err := op.Eval(&arena{}, inputs)
		if err != nil {
			return err
		}
		results[op.Name()] = rows
		stats.OutRows[name] += int64(len(rows))
		state[name] = 2
		return nil
	}
	for _, op := range ops {
		if err := eval(op.Name()); err != nil {
			return nil, stats, err
		}
	}
	return results, stats, nil
}

// runGraph compiles ops and evaluates one key group, reporting in
// evalGraph's shape.
func runGraph(ops []Op, streams map[int][]exec.Row) (map[string][]exec.Row, evalStats, error) {
	ids := make([]int, 0, len(streams))
	for id := range streams {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	stats := evalStats{InRows: map[string]int64{}, OutRows: map[string]int64{}}
	g, err := compileGraph(ops, ids)
	if err != nil {
		return nil, stats, err
	}
	slots, scratch := g.newSlots()
	for slot, id := range ids {
		slots[slot] = streams[id]
	}
	if err := g.eval(&arena{}, slots, scratch); err != nil {
		return nil, stats, err
	}
	results := make(map[string][]exec.Row, len(g.ops))
	for i, gop := range g.ops {
		name := gop.op.Name()
		results[name] = slots[g.nStreams+i]
		stats.InRows[name] = g.inRows(i, slots)
		stats.OutRows[name] = int64(len(results[name]))
		if gop.relational {
			stats.Work += stats.InRows[name]
		}
	}
	return results, stats, nil
}

// maxDAGRows caps the rows any operator of a randomDAG may yield for one
// key group, so that no seed chains joins whose output exhausts memory.
const maxDAGRows = 4096

// joinRows bounds the rows of a join of l and r rows: every pair matches,
// or, under an outer join, none does and every row is kept alone.
func joinRows(l, r int) int { return max(l*r, l+r) }

// randomDAG builds a random operator graph over nStreams two-column
// streams of at most maxGroup rows each: every op reads streams or earlier
// ops, so the graph is acyclic until a defect is injected; the ops are
// then shuffled, because evaluation order must come from the sources, not
// the declaration order. It tracks a bound on each node's rows — a join's
// is joinRows of its inputs', an aggregation's at least 1, any other op's
// its input's — and draws another op where a join would pass maxDAGRows.
func randomDAG(rng *rand.Rand, nStreams, maxGroup int) []Op {
	type node struct {
		src   Source
		width int
		rows  int // bound on the rows per key group
	}
	var nodes []node
	for id := 0; id < nStreams; id++ {
		nodes = append(nodes, node{StreamSource(id), 2, maxGroup})
	}
	pick := func() node { return nodes[rng.Intn(len(nodes))] }
	var ops []Op
	for i, n := 0, 1+rng.Intn(8); i < n; i++ {
		name := fmt.Sprintf("op%d", i)
		in := pick()
		width, rows := in.width, in.rows
		var op Op
		for op == nil {
			switch rng.Intn(5) {
			case 0:
				c, bound := rng.Intn(in.width), int64(rng.Intn(6))
				op = &FilterOp{OpName: name, In: in.src, Pred: func(r exec.Row) (bool, error) {
					return r[c].IsNull() || r[c].I >= bound, nil
				}}
			case 1:
				width = 1 + rng.Intn(3)
				exprs := make([]exec.Evaluator, width)
				for e := range exprs {
					exprs[e] = col(rng.Intn(in.width))
				}
				op = &ProjectOp{OpName: name, In: in.src, Exprs: exprs}
			case 2:
				agg := &AggOp{OpName: name, In: in.src, Aggs: []AggFunc{
					{Kind: exec.AggCountStar}, {Kind: exec.AggMax, Arg: col(rng.Intn(in.width))},
				}}
				if rng.Intn(3) > 0 {
					agg.GroupBy = []exec.Evaluator{col(rng.Intn(in.width))}
				}
				width, rows = len(agg.GroupBy)+len(agg.Aggs), max(in.rows, 1)
				op = agg
			case 3:
				right := pick()
				if joinRows(in.rows, right.rows) > maxDAGRows {
					continue
				}
				j := &JoinOp{
					OpName: name, Left: in.src, Right: right.src,
					LeftWidth: in.width, RightWidth: right.width,
					Type: []sqlparser.JoinType{sqlparser.InnerJoin, sqlparser.LeftOuterJoin,
						sqlparser.RightOuterJoin, sqlparser.FullOuterJoin}[rng.Intn(4)],
				}
				if rng.Intn(2) == 0 {
					lc, rc := rng.Intn(in.width), in.width+rng.Intn(right.width)
					j.Residual = func(r exec.Row) (bool, error) {
						return !r[lc].IsNull() && !r[rc].IsNull() && r[lc].I <= r[rc].I, nil
					}
				}
				width, rows = in.width+right.width, joinRows(in.rows, right.rows)
				op = j
			default:
				op = &SortOp{OpName: name, In: in.src, Limit: rng.Intn(4),
					Keys: []SortKey{{Fn: col(rng.Intn(in.width)), Desc: rng.Intn(2) == 0}}}
			}
		}
		ops = append(ops, op)
		nodes = append(nodes, node{OpSource(name), width, rows})
	}
	rng.Shuffle(len(ops), func(i, k int) { ops[i], ops[k] = ops[k], ops[i] })
	return ops
}

// TestRandomDAGBoundsFanOut: over seeds 1-10 000, no operator randomDAG
// emits can yield more than maxDAGRows rows for a key group of streams of
// up to 9 rows (the largest the tests feed it), bounded here from the ops
// themselves, while joins of joins still chain.
func TestRandomDAGBoundsFanOut(t *testing.T) {
	const maxGroup = 9
	peak := 0
	for seed := int64(1); seed <= 10000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := randomDAG(rng, 1+rng.Intn(3), maxGroup)
		byName := make(map[string]Op, len(ops))
		for _, op := range ops {
			byName[op.Name()] = op
		}
		memo := map[string]int{}
		var rows func(src Source) int
		rows = func(src Source) int {
			if !src.IsOp() {
				return maxGroup
			}
			if n, ok := memo[src.Op]; ok {
				return n
			}
			var n int
			switch o := byName[src.Op].(type) {
			case *JoinOp:
				n = joinRows(rows(o.Left), rows(o.Right))
			case *AggOp:
				n = max(rows(o.In), 1)
			default:
				n = rows(o.Sources()[0])
			}
			memo[src.Op] = n
			return n
		}
		for _, op := range ops {
			n := rows(OpSource(op.Name()))
			if n > maxDAGRows {
				t.Fatalf("seed %d: %s may yield %d rows, cap %d", seed, op.Name(), n, maxDAGRows)
			}
			peak = max(peak, n)
		}
	}
	if peak < maxGroup*maxGroup*maxGroup {
		t.Errorf("no operator may yield more than %d rows: no seed chained joins", peak)
	}
}

// setSource redirects op's (first) input.
func setSource(op Op, src Source) {
	switch o := op.(type) {
	case *FilterOp:
		o.In = src
	case *ProjectOp:
		o.In = src
	case *AggOp:
		o.In = src
	case *SortOp:
		o.In = src
	case *JoinOp:
		o.Left = src
	}
}

// TestCompiledGraphMatchesEvalGraph is the equivalence oracle: on random
// operator DAGs the compiled graph yields evalGraph's results, work and
// per-operator counts, and on defective graphs (a cycle, an unknown source,
// a duplicated operator) it fails with evalGraph's error — at compile time
// instead of per key group.
func TestCompiledGraphMatchesEvalGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	outcomes := map[string]int{}
	defer func() {
		for _, kind := range []string{"ok", "op cycle through", "unknown op", "duplicate op"} {
			if outcomes[kind] == 0 {
				t.Errorf("no random graph ended in %q: %v", kind, outcomes)
			}
		}
	}()
	for iter := 0; iter < 400; iter++ {
		nStreams := 1 + rng.Intn(3)
		streams := make(map[int][]exec.Row, nStreams)
		for id := 0; id < nStreams; id++ {
			rows := make([]exec.Row, rng.Intn(5))
			for i := range rows {
				rows[i] = intRow(int64(rng.Intn(4)), int64(rng.Intn(8)))
			}
			streams[id] = rows
		}
		ops := randomDAG(rng, nStreams, 4) // streams of up to 4 rows
		switch defect := rng.Intn(8); defect {
		case 0: // a cycle: some op now reads itself
			op := ops[rng.Intn(len(ops))]
			setSource(op, OpSource(op.Name()))
		case 1:
			setSource(ops[rng.Intn(len(ops))], OpSource("missing"))
		case 2:
			ops = append(ops, ops[rng.Intn(len(ops))])
		}

		want, wantStats, wantErr := evalGraph(ops, streams)
		got, gotStats, gotErr := runGraph(ops, streams)
		if wantErr != nil || gotErr != nil {
			if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
				t.Fatalf("iter %d: compiled graph error %v, evalGraph error %v", iter, gotErr, wantErr)
			}
			outcomes[strings.SplitN(gotErr.Error(), " \"", 2)[0]]++
			continue
		}
		outcomes["ok"]++
		if !maps.EqualFunc(got, want, func(g, w []exec.Row) bool { return slices.EqualFunc(g, w, exec.Row.Identical) }) {
			t.Fatalf("iter %d: results differ\n got %v\nwant %v", iter, got, want)
		}
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("iter %d: accounting differs\n got %+v\nwant %+v", iter, gotStats, wantStats)
		}
	}
}

// TestAllocBudgetOps pins what operators cost a warmed reducer arena: an
// AggOp key group holding one aggregation group costs the same whether it
// computes one aggregate or four (the accumulators are values in the
// arena's scratch, not heap objects), one holding three aggregation groups
// costs nothing (their list, index and keys are arena scratch too), and
// neither do COUNT(DISTINCT)s over several key groups of different sizes
// (each resets a set an earlier group left in the scratch).
func TestAllocBudgetOps(t *testing.T) {
	inputs := [][]exec.Row{make([]exec.Row, 20)}
	for i := range inputs[0] {
		inputs[0][i] = intRow(1, int64(i), int64(i%3))
	}
	warm := func(op Op) float64 {
		var a arena
		for i := 0; i < 3; i++ {
			a.reset()
			if _, err := op.Eval(&a, inputs); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(100, func() {
			a.reset()
			if _, err := op.Eval(&a, inputs); err != nil {
				t.Fatal(err)
			}
		})
	}
	one := &AggOp{OpName: "a", In: StreamSource(0), GroupBy: []exec.Evaluator{col(0)},
		Aggs: []AggFunc{{Kind: exec.AggSum, Arg: col(1)}}}
	four := &AggOp{OpName: "a", In: StreamSource(0), GroupBy: []exec.Evaluator{col(0)},
		Aggs: []AggFunc{{Kind: exec.AggCountStar}, {Kind: exec.AggSum, Arg: col(1)},
			{Kind: exec.AggAvg, Arg: col(1)}, {Kind: exec.AggMax, Arg: col(2)}}}
	if a1, a4 := warm(one), warm(four); a1 != a4 {
		t.Errorf("AggOp, one aggregation group: %v allocations with 1 aggregate, %v with 4", a1, a4)
	}
	// Column 2 cycles through three values.
	three := &AggOp{OpName: "a", In: StreamSource(0), GroupBy: []exec.Evaluator{col(0), col(2)},
		Aggs: []AggFunc{{Kind: exec.AggCountStar}, {Kind: exec.AggSum, Arg: col(1)}}}
	if got := warm(three); got != 0 {
		t.Errorf("AggOp, three aggregation groups: %v allocations on a warm arena, budget 0", got)
	}

	// Key groups of 20, 7 and 13 rows, reduced in turn on one arena; the
	// counted column is distinct per row, and in each of three aggregation
	// groups.
	distinct := &AggOp{OpName: "a", In: StreamSource(0), GroupBy: []exec.Evaluator{col(2)},
		Aggs: []AggFunc{{Kind: exec.AggCountDistinct, Arg: col(1)}, {Kind: exec.AggCountDistinct, Arg: col(2)}}}
	var a arena
	keyGroups := func() {
		for _, n := range []int{20, 7, 13} {
			a.reset()
			out, err := distinct.Eval(&a, [][]exec.Row{inputs[0][:n]})
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != 3 || out[0][1].I != int64((n+2)/3) || out[0][2].I != 1 {
				t.Fatalf("COUNT(DISTINCT)s over %d rows: %v", n, out)
			}
		}
	}
	keyGroups()
	if got := testing.AllocsPerRun(100, keyGroups); got != 0 {
		t.Errorf("AggOp, COUNT(DISTINCT)s over three key groups: %v allocations on a warm arena, budget 0", got)
	}
}

// TestAggOpGroupsByEncoding holds AggOp's same-group shortcut to the rule
// it shortcuts: rows group by the key encoding of their group values
// (exec.EncodeKey). The values are chosen to defeat a shortcut that
// compares bits or values — 0.0 and -0.0 (unequal bits, one key), NaNs
// with different payloads (unequal bits, one encoding), an int beside the
// float of the same number — and the key group is reduced on one reused
// arena, so stale accumulator scratch would show too.
func TestAggOpGroupsByEncoding(t *testing.T) {
	vals := []exec.Value{
		exec.Float(0), exec.Float(math.Copysign(0, -1)),
		exec.Float(math.NaN()), exec.Float(math.Float64frombits(0x7ff8000000000001)),
		exec.Int(1), exec.Float(1), exec.Str("1"), exec.Null(),
	}
	op := &AggOp{OpName: "a", In: StreamSource(0), GroupBy: []exec.Evaluator{col(0)},
		Aggs: []AggFunc{{Kind: exec.AggCountStar}, {Kind: exec.AggCountDistinct, Arg: col(1)}, {Kind: exec.AggSum, Arg: col(1)}}}
	rng := rand.New(rand.NewSource(9))
	var a arena
	for trial := 0; trial < 300; trial++ {
		rows := make([]exec.Row, rng.Intn(12))
		for i := range rows {
			g := vals[rng.Intn(len(vals))]
			if i > 0 && rng.Intn(2) == 0 {
				g = rows[i-1][0] // runs of one group, as key groups mostly are
			}
			rows[i] = exec.Row{g, exec.Int(int64(rng.Intn(3)))}
		}
		// The reference: group by encoding, output in key order.
		type ref struct {
			first exec.Value
			accs  []exec.Acc
		}
		byKey := map[string]*ref{}
		var keys []string
		for _, r := range rows {
			k := exec.EncodeKey(r[:1])
			g := byKey[k]
			if g == nil {
				g = &ref{first: r[0], accs: []exec.Acc{exec.NewAcc(exec.AggCountStar), exec.NewAcc(exec.AggCountDistinct), exec.NewAcc(exec.AggSum)}}
				byKey[k] = g
				keys = append(keys, k)
			}
			g.accs[0].Add(exec.Int(1))
			g.accs[1].Add(r[1])
			g.accs[2].Add(r[1])
		}
		sort.Strings(keys)
		var want []string
		for _, k := range keys {
			g := byKey[k]
			want = append(want, exec.EncodeRow(exec.Row{g.first, g.accs[0].Result(), g.accs[1].Result(), g.accs[2].Result()}))
		}
		a.reset()
		out, err := op.Eval(&a, [][]exec.Row{rows})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range out {
			got = append(got, exec.EncodeRow(r))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d over %v:\n got %q\nwant %q", trial, rows, got, want)
		}
	}
}
