package cmf

import (
	"fmt"
	"math/rand"
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
	partial, err := appendPartialRow(nil, agg, rows)
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
	job, err := (&CommonJob{
		Name: "combined",
		Inputs: []CommonInput{{
			Path:    "in",
			Decode:  func(scratch *exec.Row, line string) (exec.Row, error) { return decodeInto(scratch, line, schema) },
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
// — its slab and row headers recycled every time, also after a failed group
// — returns, group by group, the values and error text of a fresh instance
// per group. What it returned for
// earlier groups is compared only at the end, so a value aliasing the
// recycled scratch would show.
func TestCombineInstanceMatchesStatelessCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	job := combinedJob(t)
	task := job.Combiner.NewCombineTask()
	type result struct {
		vals []string
		err  error
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
		vals, err := task.Combine(key, values)
		reused = append(reused, result{vals, err})
		vals, err = job.Combiner.NewCombineTask().Combine(key, values)
		fresh = append(fresh, result{vals, err})
		if err != nil {
			failures++
		}
	}
	for g := range fresh {
		if got, want := fmt.Sprintf("%q %v", reused[g].vals, reused[g].err), fmt.Sprintf("%q %v", fresh[g].vals, fresh[g].err); got != want {
			t.Fatalf("group %d: the reused instance returned %s, a fresh one %s", g, got, want)
		}
	}
	if failures == 0 || failures == len(fresh) {
		t.Errorf("%d of %d groups failed: the error path or the fold went untested", failures, len(fresh))
	}
}

// TestAllocBudgetCombineInstance: once an instance has seen a group as
// large, a key group costs only what it returns — its partial row's line
// and that line's one-element slice — whatever its size.
func TestAllocBudgetCombineInstance(t *testing.T) {
	job := combinedJob(t)
	task := job.Combiner.NewCombineTask()
	for _, size := range []int{1, 8, 64} {
		values := make([]string, size)
		for v := range values {
			values[v] = EncodeTagged(0, nil, exec.Row{exec.Int(7), exec.Float(float64(v) + 0.5), exec.Str(fmt.Sprint("tag", v))})
		}
		var out []string
		got := testing.AllocsPerRun(100, func() {
			vals, err := task.Combine("7", values)
			if err != nil {
				t.Fatal(err)
			}
			out = vals
		})
		if want := []string{"0|7\t" + fmt.Sprint(size)}; len(out) != 1 || !strings.HasPrefix(out[0], want[0]) {
			t.Fatalf("%d values combined into %q", size, out)
		}
		if got > 2 {
			t.Errorf("%d values: %v allocations per key group, budget 2", size, got)
		}
	}
}
