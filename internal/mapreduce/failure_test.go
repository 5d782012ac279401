package mapreduce

import (
	"errors"
	"strings"
	"testing"
)

// Failure injection: user-code errors at every stage must abort the job
// with context, never panic, and never write partial output.

func failingMapper(err error) Mapper {
	return MapperFunc(func(line string, emit Emit) error {
		if strings.HasPrefix(line, "bad") {
			return err
		}
		emit(line, "1")
		return nil
	})
}

func okReducer() Reducer {
	return ReducerFunc(func(key string, values []string, emit func(string)) error {
		emit(key)
		return nil
	})
}

func TestMapperErrorAborts(t *testing.T) {
	e := newTestEngine(t)
	e.DFS().Write("in", []string{"a", "bad-record", "b"})
	sentinel := errors.New("malformed record")
	j := &Job{
		Name:    "failmap",
		Inputs:  []Input{{Path: "in", Mapper: failingMapper(sentinel)}},
		Reducer: okReducer(),
		Output:  "out",
	}
	_, err := e.RunJob(j)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if !strings.Contains(err.Error(), "map in") {
		t.Errorf("error lacks input context: %v", err)
	}
	if e.DFS().Exists("out") {
		t.Error("failed job must not write output")
	}
}

func TestReducerErrorAborts(t *testing.T) {
	e := newTestEngine(t)
	e.DFS().Write("in", []string{"x", "poison", "y"})
	sentinel := errors.New("reduce exploded")
	j := &Job{
		Name: "failreduce",
		Inputs: []Input{{Path: "in", Mapper: MapperFunc(func(line string, emit Emit) error {
			emit(line, "1")
			return nil
		})}},
		Reducer: ReducerFunc(func(key string, values []string, emit func(string)) error {
			if key == "poison" {
				return sentinel
			}
			emit(key)
			return nil
		}),
		Output: "out",
	}
	_, err := e.RunJob(j)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if !strings.Contains(err.Error(), `reduce key "poison"`) {
		t.Errorf("error lacks key context: %v", err)
	}
	if e.DFS().Exists("out") {
		t.Error("failed job must not write output")
	}
}

func TestCombinerErrorAborts(t *testing.T) {
	e := newTestEngine(t)
	e.DFS().Write("in", []string{"a", "a"})
	sentinel := errors.New("combine failed")
	j := &Job{
		Name: "failcombine",
		Inputs: []Input{{Path: "in", Mapper: MapperFunc(func(line string, emit Emit) error {
			emit(line, "1")
			return nil
		})}},
		Combiner: CombinerFunc(func(string, []string) ([]string, error) {
			return nil, sentinel
		}),
		Reducer: okReducer(),
		Output:  "out",
	}
	_, err := e.RunJob(j)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
}

func TestChainStopsAtFirstFailure(t *testing.T) {
	e := newTestEngine(t)
	e.DFS().Write("in", []string{"bad-record"})
	j1 := &Job{
		Name:    "j1",
		Inputs:  []Input{{Path: "in", Mapper: failingMapper(errors.New("boom"))}},
		Reducer: okReducer(),
		Output:  "mid",
	}
	j2 := wordCountJob("mid", "out")
	j2.DependsOn = []*Job{j1}
	_, err := e.RunChain([]*Job{j1, j2})
	if err == nil || !strings.Contains(err.Error(), "job j1") {
		t.Fatalf("err = %v, want failure attributed to j1", err)
	}
	if e.DFS().Exists("out") || e.DFS().Exists("mid") {
		t.Error("downstream outputs must not exist after upstream failure")
	}
}

// TestEmptyInputJob: an empty input file is not an error; the job writes an
// empty output.
func TestEmptyInputJob(t *testing.T) {
	e := newTestEngine(t)
	e.DFS().Write("in", nil)
	stats, err := e.RunJob(wordCountJob("in", "out"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.DFS().Read("out")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("output = %v, want empty", out)
	}
	if stats.NumMapTasks != 1 {
		t.Errorf("map tasks = %d, want the minimum 1", stats.NumMapTasks)
	}
}
