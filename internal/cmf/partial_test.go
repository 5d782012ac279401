package cmf

import (
	"testing"

	"ysmart/internal/exec"
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
