package cmf

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
)

func TestDecomposable(t *testing.T) {
	if !Decomposable([]exec.AggKind{exec.AggCount, exec.AggSum, exec.AggAvg, exec.AggMin, exec.AggMax, exec.AggCountStar}) {
		t.Error("standard aggregates are decomposable")
	}
	if Decomposable([]exec.AggKind{exec.AggSum, exec.AggCountDistinct}) {
		t.Error("COUNT DISTINCT is not decomposable")
	}
}

func TestPartialStatesMergeAndFinalize(t *testing.T) {
	tests := []struct {
		name     string
		kind     exec.AggKind
		partials []exec.Row // one row of partial fields per merge
		want     exec.Value
	}{
		{"count", exec.AggCount, []exec.Row{{exec.Int(2)}, {exec.Int(3)}}, exec.Int(5)},
		{"sum ints", exec.AggSum, []exec.Row{{exec.Int(4)}, {exec.Int(6)}}, exec.Int(10)},
		{"sum with null partial", exec.AggSum, []exec.Row{{exec.Null()}, {exec.Int(6)}}, exec.Int(6)},
		{"sum all null", exec.AggSum, []exec.Row{{exec.Null()}}, exec.Null()},
		{"min", exec.AggMin, []exec.Row{{exec.Int(9)}, {exec.Int(2)}}, exec.Int(2)},
		{"min all null", exec.AggMin, []exec.Row{{exec.Null()}}, exec.Null()},
		{"max", exec.AggMax, []exec.Row{{exec.Int(9)}, {exec.Int(2)}}, exec.Int(9)},
		{"avg", exec.AggAvg, []exec.Row{{exec.Float(10), exec.Int(2)}, {exec.Float(2), exec.Int(1)}}, exec.Float(4)},
		{"avg zero count", exec.AggAvg, []exec.Row{{exec.Float(0), exec.Int(0)}}, exec.Null()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			st := exec.NewAcc(tt.kind)
			for _, p := range tt.partials {
				if err := st.MergePartial(p); err != nil {
					t.Fatal(err)
				}
			}
			if got := st.Result(); got != tt.want {
				t.Errorf("result = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPartialStateMergeErrors(t *testing.T) {
	count := exec.NewAcc(exec.AggCount)
	if err := count.MergePartial(exec.Row{exec.Str("x")}); err == nil {
		t.Error("count partial should reject non-int")
	}
	avg := exec.NewAcc(exec.AggAvg)
	if err := avg.MergePartial(exec.Row{exec.Float(1), exec.Str("x")}); err == nil {
		t.Error("avg partial should reject non-int count")
	}
	if err := avg.MergePartial(exec.Row{exec.Str("x"), exec.Int(1)}); err == nil {
		t.Error("avg partial should reject non-numeric sum")
	}
}

func TestEmptyPartialStatesAreNull(t *testing.T) {
	for _, kind := range []exec.AggKind{exec.AggSum, exec.AggMin, exec.AggMax, exec.AggAvg} {
		acc := exec.NewAcc(kind)
		if got := acc.Result(); !got.IsNull() {
			t.Errorf("%v empty state result = %v, want NULL", kind, got)
		}
	}
	acc := exec.NewAcc(exec.AggCount)
	if got := acc.Result(); got != exec.Int(0) {
		t.Errorf("empty count = %v, want 0", got)
	}
}

func TestSourceString(t *testing.T) {
	if got := StreamSource(3).String(); got != "stream:3" {
		t.Errorf("StreamSource String = %q", got)
	}
	if got := OpSource("JOIN1").String(); got != "op:JOIN1" {
		t.Errorf("OpSource String = %q", got)
	}
}

func TestBuildPartialRowCountWithArg(t *testing.T) {
	// COUNT(col) skips NULL arguments in the partial.
	rows := []exec.Row{{exec.Int(1)}, {exec.Null()}, {exec.Int(3)}}
	agg := &AggOp{OpName: "a",
		GroupBy: []exec.Evaluator{func(exec.Row) (exec.Value, error) { return exec.Str("g"), nil }},
		Aggs: []AggFunc{
			{Kind: exec.AggCount, Arg: col(0)},
			{Kind: exec.AggCountStar},
		}}
	partial, _, err := appendPartialRow(nil, agg, nil, len(rows), func(i int) (exec.Row, error) { return rows[i], nil })
	if err != nil {
		t.Fatal(err)
	}
	// group value, count(col)=2, count(*)=3.
	if partial[0].S != "g" || partial[1].I != 2 || partial[2].I != 3 {
		t.Errorf("partial = %v", partial)
	}
}

// combinedJob is a single-input job whose combiner folds (cid INT,
// price FLOAT, tag TEXT) rows by cid into count(*), sum(price), avg(price)
// and max(tag) partials; price 13 poisons the sum.
func combinedJob(t *testing.T) *mapreduce.Job {
	t.Helper()
	poisoned := func(r exec.Row) (exec.Value, error) {
		if r[1].T == exec.TypeFloat && r[1].F == 13 {
			return exec.Value{}, errPoison
		}
		return r[1], nil
	}
	schema := typed(exec.TypeInt, exec.TypeFloat, exec.TypeString)
	agg := &AggOp{
		OpName:  "AGG",
		In:      StreamSource(0),
		GroupBy: []exec.Evaluator{col(0)},
		Aggs: []AggFunc{
			{Kind: exec.AggCountStar},
			{Kind: exec.AggSum, Arg: poisoned},
			{Kind: exec.AggAvg, Arg: col(1)},
			{Kind: exec.AggMax, Arg: col(2)},
		},
		// cid, then count(*), sum, avg's (sum, count) and max.
		Partials: typed(exec.TypeInt, exec.TypeInt, exec.TypeFloat, exec.TypeFloat, exec.TypeInt, exec.TypeString),
	}
	return combineJob(t, schema, agg)
}

// combineJob is a single-input, single-stream job keyed on column 0 whose
// combiner is agg over rows of schema.
func combineJob(t *testing.T, schema *exec.Schema, agg *AggOp) *mapreduce.Job {
	t.Helper()
	job, err := (&CommonJob{
		Name: "combined",
		Inputs: []CommonInput{{
			Path:    "in",
			Decode:  NewDecoder("", schema, nil, nil),
			Key:     keyOn(0),
			Schema:  schema,
			Streams: []Stream{{ID: 0}},
		}},
		Ops:       []Op{agg},
		Outputs:   []OutputSpec{{Op: "AGG"}},
		Output:    "out",
		CombineOp: "AGG",
	}).Build()
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// TestCombineInstanceMatchesStatelessCombine is the combiner's lifetime
// proof, in the shape of TestReusedInstanceMatchesFreshInstances: one
// instance folding a few hundred random key groups of very different sizes
// — its scratch row, accumulators and partial row recycled every time, also
// after a failed group — returns, group by group, the values and error text of a fresh instance
// per group. What it returned for
// earlier groups is compared only at the end, so a value aliasing the
// recycled scratch would show.
func TestCombineInstanceMatchesStatelessCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	job := combinedJob(t)
	task := job.Combiner.NewCombineTask()
	type result struct {
		val string
		err error
	}
	var reused, fresh []result
	failures := 0
	for g := 0; g < 300; g++ {
		cid := int64(rng.Intn(50))
		size := 1 + rng.Intn(6)
		if rng.Intn(5) == 0 {
			size += rng.Intn(60) // now and then a group that outgrows the scratch
		}
		values := make([]string, size)
		for v := range values {
			row := exec.Row{exec.Int(cid), exec.Float(float64(rng.Intn(40)) / 2), exec.Str(strings.Repeat("t", rng.Intn(5)))}
			if rng.Intn(8) == 0 {
				row[1] = exec.Null()
			}
			values[v] = EncodeTagged(0, nil, row)
			if rng.Intn(150) == 0 {
				values[v] = "0|oops\t1\tx" // a cid that does not decode
			}
		}
		key := fmt.Sprint(cid)
		val, err := task.Combine(key, values)
		reused = append(reused, result{val, err})
		val, err = job.Combiner.NewCombineTask().Combine(key, values)
		fresh = append(fresh, result{val, err})
		if err != nil {
			failures++
		}
	}
	for g := range fresh {
		if got, want := fmt.Sprintf("%q %v", reused[g].val, reused[g].err), fmt.Sprintf("%q %v", fresh[g].val, fresh[g].err); got != want {
			t.Fatalf("group %d: the reused instance returned %s, a fresh one %s", g, got, want)
		}
	}
	if failures == 0 || failures == len(fresh) {
		t.Errorf("%d of %d groups failed: the error path or the fold went untested", failures, len(fresh))
	}
}

// TestAllocBudgetCombineInstance: on a warm instance a key group costs only
// what it returns — its partial row's line — whatever its size.
func TestAllocBudgetCombineInstance(t *testing.T) {
	job := combinedJob(t)
	task := job.Combiner.NewCombineTask()
	for _, size := range []int{1, 8, 64} {
		values := make([]string, size)
		for v := range values {
			values[v] = EncodeTagged(0, nil, exec.Row{exec.Int(7), exec.Float(float64(v) + 0.5), exec.Str(fmt.Sprint("tag", v))})
		}
		var out string
		got := testing.AllocsPerRun(100, func() {
			val, err := task.Combine("7", values)
			if err != nil {
				t.Fatal(err)
			}
			out = val
		})
		if want := "0|7\t" + fmt.Sprint(size); !strings.HasPrefix(out, want) {
			t.Fatalf("%d values combined into %q", size, out)
		}
		if got > 1 {
			t.Errorf("%d values: %v allocations per key group, budget 1", size, got)
		}
	}
}

// TestCombineFoldMatchesPartialRow holds the row-by-row fold to the batch
// partial row it replaced: over random key groups of values holding NULL,
// NaN, ±0, ±Inf and mixed INT and FLOAT, one instance's line for a group
// is byte-equal to the encoding of the reference below over the group's
// rows decoded up front. A group's value-order first failing value, in
// decode or in an argument, is its error. Group values vary in the sign of
// a zero, as a key group's may, so a fold that read the first row after a
// later decode would show.
func TestCombineFoldMatchesPartialRow(t *testing.T) {
	// reference is the batch partial row: every row materialised, the
	// group values from the first, then every aggregate over all rows.
	reference := func(agg *AggOp, rows []exec.Row) (exec.Row, error) {
		var dst exec.Row
		for _, fn := range agg.GroupBy {
			v, err := fn(rows[0])
			if err != nil {
				return nil, err
			}
			dst = append(dst, v)
		}
		for _, spec := range agg.Aggs {
			acc := exec.NewAcc(spec.Kind)
			for _, r := range rows {
				if spec.Arg == nil {
					acc.Add(exec.Int(1))
					continue
				}
				v, err := spec.Arg(r)
				if err != nil {
					return nil, err
				}
				acc.Add(v)
			}
			dst = acc.AppendPartial(dst)
		}
		return dst, nil
	}
	poisoned := func(r exec.Row) (exec.Value, error) {
		if r[2].T == exec.TypeFloat && r[2].F == 13 {
			return exec.Value{}, errPoison
		}
		return r[2], nil
	}
	// g and x untyped, so INT and FLOAT fields mix; y FLOAT; z INT, which
	// "oops" fails to decode.
	schema := typed(exec.TypeNull, exec.TypeNull, exec.TypeFloat, exec.TypeInt)
	agg := &AggOp{
		OpName:  "AGG",
		In:      StreamSource(0),
		GroupBy: []exec.Evaluator{col(0)},
		Aggs: []AggFunc{
			{Kind: exec.AggCountStar},
			{Kind: exec.AggCount, Arg: col(1)},
			{Kind: exec.AggSum, Arg: col(1)},
			{Kind: exec.AggAvg, Arg: col(1)},
			{Kind: exec.AggMin, Arg: col(1)},
			{Kind: exec.AggMax, Arg: col(1)},
			{Kind: exec.AggSum, Arg: poisoned},
			{Kind: exec.AggMax, Arg: col(3)},
		},
		Partials: typed(exec.TypeNull, exec.TypeInt, exec.TypeInt, exec.TypeNull, exec.TypeFloat, exec.TypeInt,
			exec.TypeNull, exec.TypeNull, exec.TypeFloat, exec.TypeInt),
	}
	job := combineJob(t, schema, agg)
	task := job.Combiner.NewCombineTask()
	specials := []exec.Value{exec.Null(), exec.Float(math.NaN()), exec.Float(0), exec.Float(math.Copysign(0, -1)),
		exec.Float(math.Inf(1)), exec.Float(math.Inf(-1)), exec.Int(0), exec.Int(-3), exec.Int(math.MaxInt64), exec.Float(2.5)}
	// Each group draws its group values from one class that keys as one.
	classes := [][]exec.Value{
		{exec.Float(0), exec.Float(math.Copysign(0, -1))},
		{exec.Float(math.NaN())}, {exec.Float(math.Inf(1))}, {exec.Float(math.Inf(-1))}, {exec.Null()},
		{exec.Int(7)}, {exec.Float(-1.25)},
	}
	rng := rand.New(rand.NewSource(43))
	var lines, wantLines []string
	var errs, wantErrs []string
	signs, twoFailures := 0, 0
	for g := 0; g < 400; g++ {
		class := classes[rng.Intn(len(classes))]
		values := make([]string, 1+rng.Intn(12))
		failing := 0
		for v := range values {
			row := exec.Row{class[rng.Intn(len(class))], specials[rng.Intn(len(specials))],
				exec.Float(float64(rng.Intn(30)) / 2), exec.Int(int64(rng.Intn(5)))}
			if rng.Intn(4) == 0 {
				row[2] = specials[rng.Intn(len(specials))]
				if row[2].T == exec.TypeInt {
					row[2] = exec.Null() // y is FLOAT
				}
			}
			values[v] = EncodeTagged(0, nil, row)
			if rng.Intn(40) == 0 {
				values[v] = values[v][:strings.LastIndexByte(values[v], '\t')+1] + "oops"
			}
		}
		// The reference's rows and error: the first value, in value
		// order, that fails to decode or fails an argument.
		rows := make([]exec.Row, len(values))
		var wantErr error
		for i, v := range values {
			tv, err := appendTagged(v, []*exec.Schema{schema}, nil, nil)
			if err == nil {
				_, err = poisoned(tv.Row)
			}
			if err != nil {
				failing++
				if wantErr == nil {
					wantErr = err
				}
				continue
			}
			rows[i] = tv.Row
		}
		if failing >= 2 {
			twoFailures++
		}
		want := ""
		if wantErr == nil {
			partial, err := reference(agg, rows)
			if err != nil {
				t.Fatal(err)
			}
			want = EncodeTagged(0, nil, partial)
			if !identical(rows[0][:1], rows[len(rows)-1][:1]) {
				signs++
			}
		}
		got, err := task.Combine("k", values)
		lines, errs = append(lines, got), append(errs, fmt.Sprint(err))
		wantLines, wantErrs = append(wantLines, want), append(wantErrs, fmt.Sprint(wantErr))
	}
	for g := range lines {
		if lines[g] != wantLines[g] || errs[g] != wantErrs[g] {
			t.Fatalf("group %d: the fold returned %q (%s), the batch partial row %q (%s)", g, lines[g], errs[g], wantLines[g], wantErrs[g])
		}
	}
	if signs == 0 || twoFailures == 0 {
		t.Errorf("%d groups whose first and last group values differ, %d with two failing values: the fold went untested", signs, twoFailures)
	}
}

// TestAllocBudgetCombineFold: a fresh combine instance folding a
// 1 000-value key group holds one decoded row and one accumulator per
// aggregate, not the group: it allocates under 4 KB, where decoding the
// group up front took a 3 000-value slab and 1 000 row headers.
func TestAllocBudgetCombineFold(t *testing.T) {
	job := combinedJob(t)
	values := make([]string, 1000)
	for v := range values {
		values[v] = EncodeTagged(0, nil, exec.Row{exec.Int(7), exec.Float(float64(v) + 0.5), exec.Str("tag")})
	}
	combine := func() {
		if _, err := job.Combiner.NewCombineTask().Combine("7", values); err != nil {
			t.Fatal(err)
		}
	}
	combine()
	const runs = 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		combine()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got >= 4<<10 {
		t.Errorf("a fresh instance folding %d values allocated %d bytes, budget 4 KB", len(values), got)
	} else {
		t.Logf("a fresh instance folding %d values: %d bytes", len(values), got)
	}
}
