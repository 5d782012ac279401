package cmf

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/sqlparser"
)

// clicksSchema mirrors the paper's CLICKS table (uid, page, cid, ts).
var clicksSchema = exec.NewSchema(
	exec.Column{Name: "uid", Type: exec.TypeInt},
	exec.Column{Name: "page", Type: exec.TypeInt},
	exec.Column{Name: "cid", Type: exec.TypeInt},
	exec.Column{Name: "ts", Type: exec.TypeInt},
)

// ints is a schema of n INT columns: the value rows of the clicks inputs
// below, which project INT columns only.
func ints(n int) *exec.Schema {
	types := make([]exec.Type, n)
	for i := range types {
		types[i] = exec.TypeInt
	}
	return typed(types...)
}

// typed is a schema of anonymous columns of the given types.
func typed(types ...exec.Type) *exec.Schema {
	s := &exec.Schema{Cols: make([]exec.Column, len(types))}
	for i, t := range types {
		s.Cols[i] = exec.Column{Name: fmt.Sprint("c", i), Type: t}
	}
	return s
}

func decodeClicks(scratch *exec.Row, line string) (exec.Row, error) {
	return decodeInto(scratch, line, clicksSchema)
}

// decodeInto is a CommonInput.Decode over every column of s.
func decodeInto(scratch *exec.Row, line string, s *exec.Schema) (exec.Row, error) {
	row, err := exec.DecodeColsInto(*scratch, line, s, nil)
	if row != nil {
		*scratch = row
	}
	return row, err
}

func keyOn(idx ...int) []exec.Evaluator {
	fns := make([]exec.Evaluator, len(idx))
	for i, x := range idx {
		fns[i] = col(x)
	}
	return fns
}

func writeClicks(dfs *mapreduce.DFS, path string, rows ...[4]int64) {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = exec.EncodeRow(exec.Row{
			exec.Int(r[0]), exec.Int(r[1]), exec.Int(r[2]), exec.Int(r[3]),
		})
	}
	dfs.Write(path, lines)
}

func runCommonJob(t *testing.T, cj *CommonJob, dfs *mapreduce.DFS) (*mapreduce.JobStats, []string) {
	t.Helper()
	job, err := cj.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	e, err := mapreduce.NewEngine(dfs, mapreduce.SmallCluster())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.RunJob(job)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out, err := dfs.Read(cj.Output)
	if err != nil {
		t.Fatal(err)
	}
	return stats, out
}

// TestAggregationJob runs a Q-AGG style job: count clicks per category.
func TestAggregationJob(t *testing.T) {
	dfs := mapreduce.NewDFS()
	writeClicks(dfs, "clicks",
		[4]int64{1, 1, 10, 100},
		[4]int64{2, 2, 10, 110},
		[4]int64{3, 3, 20, 120},
	)
	cj := &CommonJob{
		Name: "qagg",
		Inputs: []CommonInput{{
			Path:    "clicks",
			Decode:  decodeClicks,
			Key:     keyOn(2), // cid
			Project: []int{2},
			Schema:  ints(1),
			Streams: []Stream{{ID: 0}},
		}},
		Ops: []Op{&AggOp{
			OpName:  "AGG",
			In:      StreamSource(0),
			GroupBy: []exec.Evaluator{col(0)},
			Aggs:    []AggFunc{{Kind: exec.AggCountStar}},
		}},
		Outputs: []OutputSpec{{Op: "AGG"}},
		Output:  "out",
	}
	_, out := runCommonJob(t, cj, dfs)
	want := []string{"10\t2", "20\t1"}
	if strings.Join(out, "|") != strings.Join(want, "|") {
		t.Errorf("output = %v, want %v", out, want)
	}
}

// TestCombinerEquivalence verifies map-side partial aggregation produces
// identical results while shrinking the shuffle.
func TestCombinerEquivalence(t *testing.T) {
	var rows [][4]int64
	for i := int64(0); i < 120; i++ {
		rows = append(rows, [4]int64{i % 7, i, i % 3, 100 + i})
	}

	build := func(withCombiner bool) *CommonJob {
		agg := &AggOp{
			OpName:  "AGG",
			In:      StreamSource(0),
			GroupBy: []exec.Evaluator{col(0)},
			Aggs: []AggFunc{
				{Kind: exec.AggCountStar},
				{Kind: exec.AggSum, Arg: col(1)},
				{Kind: exec.AggAvg, Arg: col(1)},
				{Kind: exec.AggMax, Arg: col(1)},
			},
		}
		cj := &CommonJob{
			Name: "agg",
			Inputs: []CommonInput{{
				Path:    "clicks",
				Decode:  decodeClicks,
				Key:     keyOn(2),
				Project: []int{2, 3},
				Schema:  ints(2),
				Streams: []Stream{{ID: 0}},
			}},
			Ops:     []Op{agg},
			Outputs: []OutputSpec{{Op: "AGG"}},
			Output:  "out",
		}
		if withCombiner {
			// cid, then count(*), sum, avg's (sum, count) and max.
			agg.Partials = typed(exec.TypeInt, exec.TypeInt, exec.TypeInt, exec.TypeFloat, exec.TypeInt, exec.TypeInt)
			cj.CombineOp = "AGG"
		}
		return cj
	}

	dfs1 := mapreduce.NewDFS()
	writeClicks(dfs1, "clicks", rows...)
	plainStats, plainOut := runCommonJob(t, build(false), dfs1)

	dfs2 := mapreduce.NewDFS()
	writeClicks(dfs2, "clicks", rows...)
	combStats, combOut := runCommonJob(t, build(true), dfs2)

	if strings.Join(plainOut, "|") != strings.Join(combOut, "|") {
		t.Errorf("combiner changed results:\nplain: %v\ncomb:  %v", plainOut, combOut)
	}
	if combStats.ShuffleBytes >= plainStats.ShuffleBytes {
		t.Errorf("combiner did not shrink shuffle: %d >= %d",
			combStats.ShuffleBytes, plainStats.ShuffleBytes)
	}
}

// TestSelfJoinSingleScan exercises the paper's §V.A optimization: one scan
// of clicks feeds both instances of a self-join, with exclusion tags
// marking which instance each record belongs to.
func TestSelfJoinSingleScan(t *testing.T) {
	dfs := mapreduce.NewDFS()
	writeClicks(dfs, "clicks",
		[4]int64{1, 1, 10, 100}, // uid 1, category X
		[4]int64{1, 2, 20, 200}, // uid 1, category Y
		[4]int64{2, 3, 10, 150}, // uid 2, category X (no Y partner)
		[4]int64{3, 4, 20, 300}, // uid 3, category Y (no X partner)
	)
	catX := func(r exec.Row) (bool, error) { return r[2].I == 10, nil }
	catY := func(r exec.Row) (bool, error) { return r[2].I == 20, nil }
	cj := &CommonJob{
		Name: "selfjoin",
		Inputs: []CommonInput{{
			Path:    "clicks",
			Decode:  decodeClicks,
			Key:     keyOn(0), // uid
			Project: []int{0, 3},
			Schema:  ints(2),
			Streams: []Stream{
				{ID: 0, Filter: catX},
				{ID: 1, Filter: catY},
			},
		}},
		Ops: []Op{&JoinOp{
			OpName: "JOIN1",
			Left:   StreamSource(0), Right: StreamSource(1),
			LeftWidth: 2, RightWidth: 2,
			Type:     sqlparser.InnerJoin,
			Residual: func(r exec.Row) (bool, error) { return r[1].I < r[3].I, nil },
		}},
		Outputs: []OutputSpec{{Op: "JOIN1"}},
		Output:  "out",
	}
	stats, out := runCommonJob(t, cj, dfs)
	// Only uid 1 has both categories with ts 100 < 200.
	if len(out) != 1 || out[0] != "1\t100\t1\t200" {
		t.Errorf("output = %v, want [1\\t100\\t1\\t200]", out)
	}
	// The single scan reads clicks exactly once.
	if stats.MapInputRecords != 4 {
		t.Errorf("map input records = %d, want 4 (one scan)", stats.MapInputRecords)
	}
	// Every emitted pair belongs to exactly one instance here, so all carry
	// an exclusion tag; the map output must still be one pair per record.
	if stats.MapOutputRecords != 4 {
		t.Errorf("map output records = %d, want 4", stats.MapOutputRecords)
	}
}

// TestMergedJobWithPostJoin reproduces the Fig. 6 structure in miniature:
// one job computes an aggregation and a join over the same scan, then a
// post-job join combines them in the same reduce invocation.
func TestMergedJobWithPostJoin(t *testing.T) {
	dfs := mapreduce.NewDFS()
	// "lineitem": partkey, quantity.
	dfs.Write("lineitem", []string{"1\t4", "1\t8", "2\t10"})
	// "part": partkey, name.
	dfs.Write("part", []string{"1\twidget", "2\tsprocket"})
	liSchema := exec.NewSchema(
		exec.Column{Name: "pk", Type: exec.TypeInt},
		exec.Column{Name: "qty", Type: exec.TypeInt},
	)
	partSchema := exec.NewSchema(
		exec.Column{Name: "pk", Type: exec.TypeInt},
		exec.Column{Name: "name", Type: exec.TypeString},
	)
	cj := &CommonJob{
		Name: "q17ish",
		Inputs: []CommonInput{
			{
				Path:    "lineitem",
				Decode:  func(scratch *exec.Row, l string) (exec.Row, error) { return decodeInto(scratch, l, liSchema) },
				Key:     keyOn(0),
				Schema:  liSchema,
				Streams: []Stream{{ID: 0}},
			},
			{
				Path:    "part",
				Decode:  func(scratch *exec.Row, l string) (exec.Row, error) { return decodeInto(scratch, l, partSchema) },
				Key:     keyOn(0),
				Schema:  partSchema,
				Streams: []Stream{{ID: 1}},
			},
		},
		Ops: []Op{
			// inner: avg(qty) per partkey over the lineitem stream.
			&AggOp{
				OpName: "AGG1", In: StreamSource(0),
				GroupBy: []exec.Evaluator{col(0)},
				Aggs:    []AggFunc{{Kind: exec.AggAvg, Arg: col(1)}},
			},
			// outer: lineitem ⋈ part within the key group.
			&JoinOp{
				OpName: "JOIN1",
				Left:   StreamSource(0), Right: StreamSource(1),
				LeftWidth: 2, RightWidth: 2, Type: sqlparser.InnerJoin,
			},
			// post-job: outer ⋈ inner, keep rows with qty < avg.
			&JoinOp{
				OpName: "JOIN2",
				Left:   OpSource("JOIN1"), Right: OpSource("AGG1"),
				LeftWidth: 4, RightWidth: 2, Type: sqlparser.InnerJoin,
				Residual: func(r exec.Row) (bool, error) {
					qty, _ := r[1].AsFloat()
					avg, _ := r[5].AsFloat()
					return qty < avg, nil
				},
			},
		},
		Outputs: []OutputSpec{{Op: "JOIN2"}},
		Output:  "out",
	}
	stats, out := runCommonJob(t, cj, dfs)
	// partkey 1: avg 6; rows with qty 4 pass, qty 8 fails. partkey 2: avg 10, qty 10 fails.
	if len(out) != 1 || !strings.HasPrefix(out[0], "1\t4\t1\twidget") {
		t.Errorf("output = %v", out)
	}
	if stats.MapInputRecords != 5 {
		t.Errorf("map input = %d, want 5 (each table scanned once)", stats.MapInputRecords)
	}
}

// TestMultiOutputTags checks the IC/TC-only merge shape: one job writes
// results of two merged operations into one file with source tags.
func TestMultiOutputTags(t *testing.T) {
	dfs := mapreduce.NewDFS()
	writeClicks(dfs, "clicks",
		[4]int64{1, 1, 10, 100},
		[4]int64{1, 2, 20, 200},
		[4]int64{2, 3, 10, 300},
	)
	cj := &CommonJob{
		Name: "ictc",
		Inputs: []CommonInput{{
			Path:    "clicks",
			Decode:  decodeClicks,
			Key:     keyOn(0),
			Project: []int{0, 3},
			Schema:  ints(2),
			Streams: []Stream{{ID: 0}},
		}},
		Ops: []Op{
			&AggOp{OpName: "AGG1", In: StreamSource(0),
				GroupBy: []exec.Evaluator{col(0)},
				Aggs:    []AggFunc{{Kind: exec.AggCountStar}}},
			&AggOp{OpName: "AGG2", In: StreamSource(0),
				GroupBy: []exec.Evaluator{col(0)},
				Aggs:    []AggFunc{{Kind: exec.AggMax, Arg: col(1)}}},
		},
		Outputs: []OutputSpec{{Op: "AGG1", Tag: "A1"}, {Op: "AGG2", Tag: "A2"}},
		Output:  "out",
	}
	_, out := runCommonJob(t, cj, dfs)
	var a1, a2 []string
	for _, line := range out {
		tag, payload := SplitTag(line)
		switch tag {
		case "A1":
			a1 = append(a1, payload)
		case "A2":
			a2 = append(a2, payload)
		default:
			t.Errorf("unexpected tag %q in %q", tag, line)
		}
	}
	if strings.Join(a1, "|") != "1\t2|2\t1" {
		t.Errorf("AGG1 = %v", a1)
	}
	if strings.Join(a2, "|") != "1\t200|2\t300" {
		t.Errorf("AGG2 = %v", a2)
	}
}

func TestCommonJobValidation(t *testing.T) {
	base := func() *CommonJob {
		return &CommonJob{
			Name: "x",
			Inputs: []CommonInput{{
				Path: "p", Decode: decodeClicks, Key: keyOn(0), Schema: clicksSchema,
				Streams: []Stream{{ID: 0}},
			}},
			Ops: []Op{&FilterOp{OpName: "f", In: StreamSource(0),
				Pred: func(exec.Row) (bool, error) { return true, nil }}},
			Outputs: []OutputSpec{{Op: "f"}},
			Output:  "o",
		}
	}
	tests := []struct {
		name   string
		mutate func(*CommonJob)
		want   string
	}{
		{"no name", func(c *CommonJob) { c.Name = "" }, "no name"},
		{"no inputs", func(c *CommonJob) { c.Inputs = nil }, "no inputs"},
		{"no decode", func(c *CommonJob) { c.Inputs[0].Decode = nil }, "Decode"},
		{"no schema", func(c *CommonJob) { c.Inputs[0].Schema = nil }, "Schema"},
		{"no streams", func(c *CommonJob) { c.Inputs[0].Streams = nil }, "no streams"},
		{"dup stream", func(c *CommonJob) {
			c.Inputs[0].Streams = []Stream{{ID: 0}, {ID: 0}}
		}, "duplicate stream"},
		{"unknown op output", func(c *CommonJob) { c.Outputs[0].Op = "zzz" }, "unknown op"},
		{"unknown stream", func(c *CommonJob) {
			c.Ops = []Op{&FilterOp{OpName: "f", In: StreamSource(9),
				Pred: func(exec.Row) (bool, error) { return true, nil }}}
		}, "unknown stream"},
		{"op cycle", func(c *CommonJob) {
			pass := func(exec.Row) (bool, error) { return true, nil }
			c.Ops = []Op{
				&FilterOp{OpName: "f", In: OpSource("g"), Pred: pass},
				&FilterOp{OpName: "g", In: OpSource("f"), Pred: pass},
			}
		}, "op cycle"},
		{"no outputs", func(c *CommonJob) { c.Outputs = nil }, "writes nothing"},
		{"multi-output needs tags", func(c *CommonJob) {
			c.Outputs = []OutputSpec{{Op: "f"}, {Op: "f", Tag: "t"}}
		}, "tags"},
		{"duplicate output tag", func(c *CommonJob) {
			c.Outputs = []OutputSpec{{Op: "f", Tag: "t"}, {Op: "f", Tag: "t"}}
		}, "duplicate output tag"},
		{"combiner needs agg", func(c *CommonJob) { c.CombineOp = "f" }, "not an aggregation"},
		{"combiner unknown op", func(c *CommonJob) { c.CombineOp = "zzz" }, "not found"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cj := base()
			tt.mutate(cj)
			_, err := cj.Build()
			if err == nil {
				t.Fatalf("Build succeeded, want error containing %q", tt.want)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not contain %q", err, tt.want)
			}
		})
	}
}

func TestCombinerRequiresDecomposable(t *testing.T) {
	agg := &AggOp{
		OpName: "AGG", In: StreamSource(0),
		GroupBy:  []exec.Evaluator{col(0)},
		Aggs:     []AggFunc{{Kind: exec.AggCountDistinct, Arg: col(1)}},
		Partials: ints(2),
	}
	cj := &CommonJob{
		Name: "x",
		Inputs: []CommonInput{{
			Path: "p", Decode: decodeClicks, Key: keyOn(0), Schema: clicksSchema,
			Streams: []Stream{{ID: 0}},
		}},
		Ops:       []Op{agg},
		Outputs:   []OutputSpec{{Op: "AGG"}},
		Output:    "o",
		CombineOp: "AGG",
	}
	if _, err := cj.Build(); err == nil || !strings.Contains(err.Error(), "decomposable") {
		t.Errorf("err = %v, want decomposable error", err)
	}
}

// TestGlobalAggregationJob checks the empty-key path used by final
// aggregations like Q-CSA's AGG4 (one reduce group holds everything).
func TestGlobalAggregationJob(t *testing.T) {
	dfs := mapreduce.NewDFS()
	dfs.Write("in", []string{"1\t10", "2\t20", "3\t30"})
	schema := exec.NewSchema(
		exec.Column{Name: "k", Type: exec.TypeInt},
		exec.Column{Name: "v", Type: exec.TypeInt},
	)
	cj := &CommonJob{
		Name: "global",
		Inputs: []CommonInput{{
			Path:    "in",
			Decode:  func(scratch *exec.Row, l string) (exec.Row, error) { return decodeInto(scratch, l, schema) },
			Schema:  schema,
			Streams: []Stream{{ID: 0}}, // no Key: every row shares the empty key
		}},
		Ops: []Op{&AggOp{
			OpName: "AGG", In: StreamSource(0),
			Aggs: []AggFunc{{Kind: exec.AggAvg, Arg: col(1)}},
		}},
		Outputs:        []OutputSpec{{Op: "AGG"}},
		Output:         "out",
		NumReduceTasks: 1,
	}
	_, out := runCommonJob(t, cj, dfs)
	if len(out) != 1 || out[0] != "20.0" {
		t.Errorf("global avg = %v, want [20.0]", out)
	}
}

// q17Job is the shape of TPC-H Q17's merged job (AGG1 + JOIN1 + JOIN2 over
// one shared lineitem scan, paper Fig. 7): lineitem feeds two streams, part
// a third, and five operators run per part key.
func q17Job() *CommonJob {
	pass := []int{0, 1, 2}
	return &CommonJob{
		Name: "q17",
		Inputs: []CommonInput{
			{Path: "lineitem", Decode: decodeClicks, Key: keyOn(0), Project: pass, Schema: ints(3),
				Streams: []Stream{{ID: 0}, {ID: 1}}},
			{Path: "part", Decode: decodeClicks, Key: keyOn(0), Project: []int{0}, Schema: ints(1),
				Streams: []Stream{{ID: 2}}},
		},
		Ops: []Op{
			&AggOp{OpName: "AGG1", In: StreamSource(0), GroupBy: []exec.Evaluator{col(0)},
				Aggs: []AggFunc{{Kind: exec.AggAvg, Arg: col(1)}}},
			&ProjectOp{OpName: "inner_t", In: OpSource("AGG1"), Exprs: []exec.Evaluator{col(0),
				func(r exec.Row) (exec.Value, error) { return exec.Float(0.25 * r[1].F), nil }}},
			&JoinOp{OpName: "JOIN1", Left: StreamSource(1), Right: StreamSource(2),
				LeftWidth: 3, RightWidth: 1, Type: sqlparser.InnerJoin},
			&ProjectOp{OpName: "outer_t", In: OpSource("JOIN1"), Exprs: []exec.Evaluator{col(0), col(1), col(2)}},
			&JoinOp{OpName: "JOIN2", Left: OpSource("inner_t"), Right: OpSource("outer_t"),
				LeftWidth: 2, RightWidth: 3, Type: sqlparser.InnerJoin,
				Residual: func(r exec.Row) (bool, error) { return float64(r[3].I) < r[1].F, nil }},
		},
		Outputs: []OutputSpec{{Op: "JOIN2"}},
		Output:  "out",
	}
}

// q17Group is one part key's reduce group: eight lineitems and the part.
func q17Group() (key string, values []string) {
	for q := int64(1); q <= 8; q++ {
		values = append(values, EncodeTagged(0, nil, intRow(7, q*q, 1000+q)))
	}
	return "7", append(values, EncodeTagged(1, nil, intRow(7)))
}

// TestAllocBudgetReduce pins what a key group costs a warmed reducer
// instance: the decoded values, stream buckets, join, projection and
// aggregation results of nine values and five operators all come out of
// the arena and the aggregation's accumulators out of its scratch, so what
// is left is the two output lines. The same
// group on a fresh instance per key — what every key group cost before
// instances outlived a key — must overrun the budget, or it pins nothing.
func TestAllocBudgetReduce(t *testing.T) {
	job, err := q17Job().Build()
	if err != nil {
		t.Fatal(err)
	}
	key, values := q17Group()
	var out []string
	emit := func(line string) { out = append(out, line) }
	task := job.Reducer.(mapreduce.ReduceTaskFactory).NewReduceTask()
	if err := task.Reduce(key, values, emit); err != nil {
		t.Fatal(err)
	}
	// AVG(quantity) = 25.5, so quantities 1 and 4 (< 0.25 * 25.5) survive JOIN2.
	if want := []string{"7\t6.375\t7\t1\t1001", "7\t6.375\t7\t4\t1002"}; !reflect.DeepEqual(out, want) {
		t.Fatalf("Q17-shaped group reduced to %q, want %q", out, want)
	}

	const budget = 2
	warm := testing.AllocsPerRun(100, func() {
		out = out[:0]
		if err := task.Reduce(key, values, emit); err != nil {
			t.Fatal(err)
		}
	})
	if warm > budget {
		t.Errorf("Reduce of a Q17-shaped key group on a warmed instance: %v allocations, budget %d", warm, budget)
	}
	fresh := testing.AllocsPerRun(100, func() {
		out = out[:0]
		if err := job.Reducer.Reduce(key, values, emit); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Reduce: %v allocations per key group on a warmed instance, %v on a fresh one", warm, fresh)
	if fresh <= budget {
		t.Errorf("a fresh instance per key group fits the budget (%v <= %d): the budget pins nothing", fresh, budget)
	}
}

func TestAllocBudgetEncodeTagged(t *testing.T) {
	row := intRow(7, 30, 1003)
	for name, fn := range map[string]func(){
		"no exclusions": func() { sinkString = EncodeTagged(0, nil, row) },
		"exclusions":    func() { sinkString = EncodeTagged(3, []int{1, 12}, row) },
	} {
		if got := testing.AllocsPerRun(200, fn); got > 1 {
			t.Errorf("EncodeTagged, %s: %v allocations per run, budget 1", name, got)
		}
	}
}

var sinkString string

// TestAllocBudgetMapTask pins what a line costs a warmed map task: the
// decode goes into the task's scratch row, the key values into its scratch
// slice and the pair into its pair chunks, so an emitted line costs nothing
// but its share of a chunk — plus, with an ordered (KeyEncode) key, the
// string the encoder returns — and a line every stream's selection rejects
// costs nothing.
func TestAllocBudgetMapTask(t *testing.T) {
	keep := func(r exec.Row) (bool, error) { return r[2].I == 10, nil }
	for _, ordered := range []bool{false, true} {
		in := CommonInput{
			Path: "clicks", Decode: decodeClicks, Key: keyOn(0, 3), Project: []int{0, 3}, Schema: ints(2),
			Streams: []Stream{{ID: 0, Filter: keep}, {ID: 1, Filter: keep}},
		}
		if ordered {
			in.KeyEncode = func(vals []exec.Value) string { return exec.EncodeOrderedKey(vals, nil) }
		}
		job, err := (&CommonJob{
			Name: "scan", Inputs: []CommonInput{in}, Output: "out",
			Ops:     []Op{&FilterOp{OpName: "f", In: StreamSource(0), Pred: keep}},
			Outputs: []OutputSpec{{Op: "f"}},
		}).Build()
		if err != nil {
			t.Fatal(err)
		}
		task := job.Inputs[0].Mapper.(mapreduce.MapTaskFactory).NewMapTask()
		pairs := 0
		emit := func(k, v string) { pairs++ }
		emitted, filtered := "7\t1\t10\t100", "7\t1\t20\t100"
		for _, line := range []string{emitted, filtered} {
			if err := task.Map(line, emit); err != nil {
				t.Fatal(err)
			}
		}
		if pairs != 1 {
			t.Fatalf("ordered=%v: %d pairs for one selected and one rejected line", ordered, pairs)
		}
		pairBudget := 0.0
		if ordered {
			pairBudget = 1
		}
		for _, c := range []struct {
			line   string
			budget float64
		}{{emitted, pairBudget}, {filtered, 0}} {
			got := testing.AllocsPerRun(200, func() {
				if err := task.Map(c.line, emit); err != nil {
					t.Fatal(err)
				}
			})
			if got > c.budget {
				t.Errorf("ordered=%v, line %q: %v allocations on a warmed map task, budget %v", ordered, c.line, got, c.budget)
			}
		}
	}
}

// TestMapTaskPairsStayPut is the pair chunks' lifetime proof: every pair a
// map task emitted still equals the copy taken when it was emitted after
// the task has mapped thousands more lines — pairs of random sizes, some
// longer than a chunk's cap, between lines the selection rejects.
func TestMapTaskPairsStayPut(t *testing.T) {
	schema := typed(exec.TypeInt, exec.TypeString)
	keep := func(r exec.Row) (bool, error) { return r[0].I%5 != 0, nil }
	job, err := (&CommonJob{
		Name: "pairs", Output: "out",
		Inputs: []CommonInput{{
			Path: "in", Key: keyOn(0), Schema: schema,
			Decode:  func(scratch *exec.Row, line string) (exec.Row, error) { return decodeInto(scratch, line, schema) },
			Streams: []Stream{{ID: 0, Filter: keep}},
		}},
		Ops:     []Op{&FilterOp{OpName: "f", In: StreamSource(0), Pred: keep}},
		Outputs: []OutputSpec{{Op: "f"}},
	}).Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	task := job.Inputs[0].Mapper.(mapreduce.MapTaskFactory).NewMapTask()
	type pair struct{ k, v, wantK, wantV string }
	var pairs []pair
	emit := func(k, v string) { pairs = append(pairs, pair{k, v, strings.Clone(k), strings.Clone(v)}) }
	long := 0
	for i := 0; i < 5000; i++ {
		n := rng.Intn(40)
		if rng.Intn(200) == 0 {
			n = maxChunkBytes + rng.Intn(2*maxChunkBytes)
		}
		line := fmt.Sprintf("%d\t%s", rng.Intn(1000), strings.Repeat(string(rune('a'+i%26)), n))
		before := len(pairs)
		if err := task.Map(line, emit); err != nil {
			t.Fatal(err)
		}
		if len(pairs) > before && len(pairs[before].k)+len(pairs[before].v) > maxChunkBytes {
			long++
		}
	}
	for i, p := range pairs {
		if p.k != p.wantK || p.v != p.wantV {
			t.Fatalf("pair %d of %d changed after later lines: %q|%.40q, emitted as %q|%.40q", i, len(pairs), p.k, p.v, p.wantK, p.wantV)
		}
	}
	if long == 0 || len(pairs) == 5000 || len(pairs) == 0 {
		t.Fatalf("%d pairs, %d longer than a chunk's cap: not the mix this test is about", len(pairs), long)
	}
}
