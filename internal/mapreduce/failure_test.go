package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"ysmart/internal/obs"
)

// absent reports whether path is missing from d: Read fails with a
// *FileNotFoundError.
func absent(d *DFS, path string) bool {
	var nf *FileNotFoundError
	_, err := d.Read(path)
	return errors.As(err, &nf)
}

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
	_, err := e.runJob(j)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if !strings.Contains(err.Error(), "map in") {
		t.Errorf("error lacks input context: %v", err)
	}
	if !absent(e.DFS(), "out") {
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
	_, err := e.runJob(j)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if !strings.Contains(err.Error(), `reduce key "poison"`) {
		t.Errorf("error lacks key context: %v", err)
	}
	if !absent(e.DFS(), "out") {
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
		Combiner: CombinerFunc(func(string, []string) (string, error) {
			return "", sentinel
		}),
		Reducer: okReducer(),
		Output:  "out",
	}
	_, err := e.runJob(j)
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
	_, err := e.RunChain([]*Job{j1, j2})
	if err == nil || !strings.Contains(err.Error(), "job j1") {
		t.Fatalf("err = %v, want failure attributed to j1", err)
	}
	if !absent(e.DFS(), "out") || !absent(e.DFS(), "mid") {
		t.Error("downstream outputs must not exist after upstream failure")
	}
}

// TestEmptyInputJob: an empty input file is not an error; the job writes an
// empty output.
func TestEmptyInputJob(t *testing.T) {
	e := newTestEngine(t)
	e.DFS().Write("in", nil)
	stats, err := e.runJob(wordCountJob("in", "out"))
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

// manyTaskEngine is an engine whose small SplitSize cuts a few thousand
// lines into many map tasks, so map morsels and combiners fan out at
// workers > 1 and run one after another at workers 1.
func manyTaskEngine(t *testing.T, workers int, lines []string) *Engine {
	t.Helper()
	cluster := SmallCluster()
	cluster.Cost.SplitSize = 1024
	e, err := NewEngine(NewDFS(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(workers)
	e.DFS().Write("in", lines)
	return e
}

func wordLines(n int) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("w%d w%d", i%13, i%7)
	}
	return lines
}

// TestUserCodePanicFailsTheJob: a panic in a mapper, a combiner or a reducer
// — on a worker goroutine or inline on the driver — fails its job with an
// error naming the panic, writes no output, and leaves the engine usable.
// The "late reducer", which has no factory, panics only on the first key of
// the second key run at 4 workers: on a worker, inside that run's work item.
func TestUserCodePanicFailsTheJob(t *testing.T) {
	lines := wordLines(3000)
	lines[2500] = "boom"
	var pairs []kv
	for _, line := range lines {
		_ = wordCountJob("", "").Inputs[0].Mapper.NewMapTask().Map(line, func(key, value string) {
			pairs = append(pairs, kv{key, value})
		})
	}
	runs := (&Engine{workers: 4}).cutRuns(referenceShuffle([][]kv{pairs}), len(pairs))
	if len(runs) < 2 {
		t.Fatalf("%d key runs at 4 workers: the late reducer needs a second", len(runs))
	}
	lateKey := runs[1].groups[0].key
	panicky := func(stage string) *Job {
		j := wordCountJob("in", "out")
		switch stage {
		case "mapper":
			inner := j.Inputs[0].Mapper.NewMapTask() // a stateless MapperFunc: its own instance
			j.Inputs[0].Mapper = MapperFunc(func(line string, emit Emit) error {
				if line == "boom" {
					panic("mapper boom")
				}
				return inner.Map(line, emit)
			})
		case "combiner":
			j.Combiner = CombinerFunc(func(key string, values []string) (string, error) {
				if key == "boom" {
					panic("combiner boom")
				}
				return strconv.Itoa(len(values)), nil // every value is "1"
			})
		case "reducer":
			inner := j.Reducer.NewReduceTask() // a stateless ReducerFunc: its own instance
			j.Reducer = ReducerFunc(func(key string, values []string, emit func(string)) error {
				if key == "boom" {
					panic("reducer boom")
				}
				return inner.Reduce(key, values, emit)
			})
		case "late reducer":
			inner := j.Reducer.NewReduceTask() // a stateless ReducerFunc: its own instance
			j.Reducer = ReducerFunc(func(key string, values []string, emit func(string)) error {
				if key == lateKey {
					panic("late reducer boom")
				}
				return inner.Reduce(key, values, emit)
			})
		}
		return j
	}
	for _, workers := range []int{1, 4} {
		for _, stage := range []string{"mapper", "combiner", "reducer", "late reducer"} {
			e := manyTaskEngine(t, workers, lines)
			_, err := e.RunChain([]*Job{panicky(stage)})
			if err == nil || !strings.Contains(err.Error(), "job wordcount") || !strings.Contains(err.Error(), "panic: "+stage+" boom") {
				t.Errorf("workers %d, panicking %s: err = %v, want the job's error naming the panic", workers, stage, err)
			}
			if !absent(e.DFS(), "out") {
				t.Errorf("workers %d, panicking %s: the failed job wrote output", workers, stage)
			}
			if _, err := e.RunChain([]*Job{wordCountJob("in", "out")}); err != nil {
				t.Errorf("workers %d: chain after a %s panic: %v", workers, stage, err)
			}
		}
	}
}

// TestForEachTaskStopsAtCancel: every item checks the chain's context before
// it runs, so once one item cancels, no worker starts another — at most the
// items already under way finish — and the pool reports the cancellation.
func TestForEachTaskStopsAtCancel(t *testing.T) {
	for _, workers := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		e := &Engine{workers: workers, ctx: ctx}
		cancelled := make(chan struct{})
		var ran atomic.Int64
		err := e.forEachTask(64, func(_, i int) error {
			ran.Add(1)
			if i == 0 {
				cancel()
				close(cancelled)
			}
			<-cancelled
			return nil
		})
		if !errors.Is(err, context.Canceled) || ran.Load() > int64(workers) {
			t.Errorf("workers %d: err %v after %d items ran, want context.Canceled after at most %d", workers, err, ran.Load(), workers)
		}
	}
}

// TestRunChainContextStops: a context that is never cancelled changes
// nothing — the same stats and output as RunChain — while a cancelled one
// runs no job, and one cancelled by a mapper mid-chain stops the chain
// before its next work item, so the dependent job never starts.
func TestRunChainContextStops(t *testing.T) {
	lines := wordLines(3000)
	chain := func(mapper Mapper) []*Job {
		j1 := wordCountJob("in", "mid")
		if mapper != nil {
			j1.Inputs[0].Mapper = mapper
		}
		j2 := wordCountJob("mid", "out")
		j2.Name = "recount"
		return []*Job{j1, j2}
	}
	for _, workers := range []int{1, 4} {
		plain := manyTaskEngine(t, workers, lines)
		want, err := plain.RunChain(chain(nil))
		if err != nil {
			t.Fatal(err)
		}
		wantOut, _ := plain.DFS().Read("out")
		live, cancel := context.WithCancel(context.Background())
		e := manyTaskEngine(t, workers, lines)
		got, err := e.RunChainContext(live, chain(nil))
		cancel()
		gotOut, _ := e.DFS().Read("out")
		if err != nil || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotOut, wantOut) {
			t.Errorf("workers %d: a live context changed the chain (err %v)", workers, err)
		}

		e = manyTaskEngine(t, workers, lines)
		reg := obs.NewRegistry()
		e.Instrument(nil, reg)
		stats, err := e.RunChainContext(live, chain(nil)) // cancelled above
		if stats != nil || !errors.Is(err, context.Canceled) || reg.Value("ysmart_dfs_reads_total") != 0 || e.Now() != 0 {
			t.Errorf("workers %d: cancelled context: stats %v, err %v, %v DFS reads; want no job started",
				workers, stats, err, reg.Value("ysmart_dfs_reads_total"))
		}

		ctx, cancel := context.WithCancel(context.Background())
		inner := wordCountJob("in", "mid").Inputs[0].Mapper.NewMapTask()
		e = manyTaskEngine(t, workers, lines)
		stats, err = e.RunChainContext(ctx, chain(MapperFunc(func(line string, emit Emit) error {
			cancel()
			return inner.Map(line, emit)
		})))
		if stats != nil || !errors.Is(err, context.Canceled) || !absent(e.DFS(), "out") {
			t.Errorf("workers %d: cancelled mid-chain: stats %v, err %v, out written %v", workers, stats, err, !absent(e.DFS(), "out"))
		}
	}
}
