package mapreduce

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// grepJob counts lines containing "x". With prefilter set, the mapper
// reports the lines its guard drops as ErrFiltered.
func grepJob(in, out string, prefilter bool) *Job {
	dropped := error(nil)
	if prefilter {
		dropped = ErrFiltered
	}
	input := Input{
		Path: in,
		Mapper: MapperFunc(func(line string, emit Emit) error {
			if !strings.Contains(line, "x") {
				return dropped
			}
			emit("x", "1")
			return nil
		}),
	}
	return &Job{
		Name:   "grep",
		Inputs: []Input{input},
		Reducer: ReducerFunc(func(key string, values []string, emit func(string)) error {
			emit(key + "\t" + strconv.Itoa(len(values)))
			return nil
		}),
		Output: out,
	}
}

// TestPrefilterByteIdenticalAndCheaper checks the contract of ErrFiltered:
// a mapper reporting the lines its guard drops leaves output and every
// shuffle counter byte-identical, the engine counts those lines, and the
// predicted map CPU drops.
func TestPrefilterByteIdenticalAndCheaper(t *testing.T) {
	lines := []string{"ax", "b", "cx", "d", "e", "fx", "g", "h"}

	run := func(prefilter bool) (*JobStats, []string) {
		t.Helper()
		e := newTestEngine(t)
		e.DFS().Write("in", lines)
		stats, err := e.runJob(grepJob("in", "out", prefilter))
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.DFS().Read("out")
		if err != nil {
			t.Fatal(err)
		}
		return stats, out
	}

	plain, plainOut := run(false)
	filt, filtOut := run(true)

	if !reflect.DeepEqual(plainOut, filtOut) {
		t.Fatalf("prefilter changed output: %v vs %v", plainOut, filtOut)
	}
	if plain.MapRecordsFiltered != 0 {
		t.Fatalf("unfiltered run counted %d filtered records", plain.MapRecordsFiltered)
	}
	if filt.MapRecordsFiltered != 5 {
		t.Fatalf("MapRecordsFiltered = %d, want 5", filt.MapRecordsFiltered)
	}
	if filt.MapInputRecords != plain.MapInputRecords {
		t.Fatalf("prefilter changed MapInputRecords: %d vs %d", filt.MapInputRecords, plain.MapInputRecords)
	}
	if filt.MapOutputRecords != plain.MapOutputRecords || filt.MapOutputBytes != plain.MapOutputBytes {
		t.Fatalf("prefilter changed map output counters: %+v vs %+v", filt, plain)
	}

	// The CPU charge must drop by exactly (1-factor) per filtered record.
	cm := DefaultCostModel()
	saved := mapCPURecords(plain, cm, 1) - mapCPURecords(filt, cm, 1)
	want := float64(filt.MapRecordsFiltered) * (1 - filteredCPUFactor)
	if math.Abs(saved-want) > 1e-9 {
		t.Fatalf("mapCPURecords saving = %v, want %v", saved, want)
	}
}

// TestPrefilterFaultPath runs the same job under a fault plan at several
// worker counts: the filtered-line count survives the fault path, and
// output stays byte-identical to the unfiltered fault-free run.
func TestPrefilterFaultPath(t *testing.T) {
	lines := []string{"ax", "b", "cx", "d", "e", "fx", "g", "h", "ix", "j"}

	var wantOut []string
	for _, workers := range []int{1, 2, 8} {
		for _, prefilter := range []bool{false, true} {
			cl := SmallCluster()
			cl.Nodes = 4
			cl.Cost.SplitSize = 4 // several real map tasks
			cl.Faults = &FaultPlan{Seed: 7, TaskFailureProb: 0.2, NodeFailures: []NodeFailure{{Node: 3, At: 14}}}
			e, err := NewEngine(NewDFS(), cl)
			if err != nil {
				t.Fatal(err)
			}
			e.SetWorkers(workers)
			e.DFS().Write("in", lines)
			stats, err := e.runJob(grepJob("in", "out", prefilter))
			if err != nil {
				t.Fatalf("workers=%d prefilter=%v: %v", workers, prefilter, err)
			}
			out, err := e.DFS().Read("out")
			if err != nil {
				t.Fatal(err)
			}
			if wantOut == nil {
				wantOut = out
			}
			if !reflect.DeepEqual(out, wantOut) {
				t.Fatalf("workers=%d prefilter=%v: output diverged: %v vs %v", workers, prefilter, out, wantOut)
			}
			if prefilter && stats.MapRecordsFiltered == 0 {
				t.Fatalf("workers=%d: fault path lost the filtered-record count", workers)
			}
		}
	}
}

// TestFaultSpecRejectsNonFinite pins the NaN/Inf hardening of the fault DSL
// and of Validate: non-finite probabilities, factors and death times must be
// rejected before they can reach the scheduler's ordering.
func TestFaultSpecRejectsNonFinite(t *testing.T) {
	for _, spec := range []string{"task=NaN", "straggler=Inf", "straggler=0.1xNaN", "node=1@NaN", "node=1@+Inf"} {
		if _, err := ParseFaultSpec(spec); err == nil {
			t.Errorf("ParseFaultSpec(%q) accepted a non-finite value", spec)
		}
	}
	bad := []*FaultPlan{
		{TaskFailureProb: math.NaN()},
		{StragglerProb: math.NaN()},
		{StragglerProb: 0.1, StragglerFactor: math.NaN()},
		{StragglerProb: 0.1, StragglerFactor: math.Inf(1)},
		{NodeFailures: []NodeFailure{{Node: 0, At: math.NaN()}}},
		{NodeFailures: []NodeFailure{{Node: 0, At: math.Inf(1)}}},
	}
	for i, p := range bad {
		if err := p.Validate(4); err == nil {
			t.Errorf("Validate accepted non-finite plan %d: %+v", i, p)
		}
	}
}
