package mapreduce

import (
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestDFSConcurrentAccess hammers every DFS operation from many
// goroutines; run under -race it proves the store is safe for the engine's
// worker pool. Writers stay on per-goroutine paths (the engine never has
// two tasks writing one file) while readers roam everywhere.
func TestDFSConcurrentAccess(t *testing.T) {
	d := NewDFS()
	for g := 0; g < 8; g++ {
		d.Write(fmt.Sprintf("f%d", g), []string{"seed"})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := fmt.Sprintf("f%d", g)
			for i := 0; i < 200; i++ {
				d.Write(own, []string{fmt.Sprintf("line-%d-%d", g, i)})
				if lines, err := d.Read(fmt.Sprintf("f%d", (g+i)%8)); err != nil || len(lines) == 0 {
					t.Errorf("read: %v (%d lines)", err, len(lines))
					return
				}
				d.SizeBytes(own)
				d.Digest(own)
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		lines, err := d.Read(fmt.Sprintf("f%d", g))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("line-%d-199", g); len(lines) != 1 || lines[0] != want {
			t.Errorf("f%d = %v, want [%s]", g, lines, want)
		}
	}
}

// TestForEachTaskDeterministicError checks the worker pool reports the
// lowest-index failure regardless of which goroutine hits its failure first,
// a panicking item failing with its panic like any other error.
func TestForEachTaskDeterministicError(t *testing.T) {
	e := &Engine{workers: 8}
	for _, c := range []struct {
		firstError int
		want       string
	}{{3, "task 3 failed"}, {10, "panic: task 5"}} {
		for trial := 0; trial < 20; trial++ {
			err := e.forEachTask(64, func(_, i int) error {
				switch {
				case i%7 == 3 && i >= c.firstError:
					return fmt.Errorf("task %d failed", i)
				case i%9 == 5:
					panic(fmt.Sprintf("task %d", i))
				}
				return nil
			})
			if err == nil || err.Error() != c.want {
				t.Fatalf("trial %d: err = %v, want %q (lowest index)", trial, err, c.want)
			}
		}
	}
}

// TestSetWorkersClamps checks worker-count plumbing and clamping.
func TestSetWorkersClamps(t *testing.T) {
	e := newTestEngine(t)
	if e.Workers() != runtime.NumCPU() {
		t.Errorf("new engine has %d workers, want NumCPU = %d", e.Workers(), runtime.NumCPU())
	}
	e.SetWorkers(-3)
	if e.Workers() != 1 {
		t.Errorf("SetWorkers(-3) -> %d, want 1", e.Workers())
	}
	e.SetWorkers(6)
	if e.Workers() != 6 {
		t.Errorf("SetWorkers(6) -> %d, want 6", e.Workers())
	}
}

// benchReducer sums integer values per key. It is stateless, so it is its
// own reducer instance, whichever workers take its key runs.
type benchReducer struct{}

func (benchReducer) Reduce(key string, values []string, emit func(line string)) error {
	var sum int64
	for _, v := range values {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return err
		}
		sum += n
	}
	emit(key + "\t" + strconv.FormatInt(sum, 10))
	return nil
}

func (r benchReducer) NewReduceTask() ReduceTask { return r } // stateless: its own instance

func (benchReducer) Done() ReduceCounts { return ReduceCounts{} }

// benchJob builds a deliberately CPU-heavy wordcount variant: the mapper
// burns cycles per line (standing in for real deserialization + predicate
// work) so the benchmark measures compute scaling, not slice shuffling.
func benchJob() *Job {
	return &Job{
		Name: "bench[AGG1]",
		Inputs: []Input{{
			Path: "in",
			Mapper: MapperFunc(func(line string, emit Emit) error {
				h := uint64(14695981039346656037)
				for spin := 0; spin < 400; spin++ {
					for i := 0; i < len(line); i++ {
						h = (h ^ uint64(line[i])) * 1099511628211
					}
				}
				for _, w := range strings.Fields(line) {
					emit(w, strconv.FormatUint(h%10, 10))
				}
				return nil
			}),
		}},
		Reducer: benchReducer{},
		Combiner: CombinerFunc(func(key string, values []string) (string, error) {
			var sum int64
			for _, v := range values {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return "", err
				}
				sum += n
			}
			return strconv.FormatInt(sum, 10), nil
		}),
		Output: "out",
	}
}

// wideJob is the shuffle-heavy twin of benchJob: a light mapper emits every
// field of a line as a key and no combiner folds them, so tens of
// thousands of pairs over thousands of keys reach the shuffle and the
// reduce key runs.
func wideJob() *Job {
	return &Job{
		Name: "bench[AGG-wide]",
		Inputs: []Input{{
			Path: "in",
			Mapper: MapperFunc(func(line string, emit Emit) error {
				for _, w := range strings.Fields(line) {
					emit(w, "1")
				}
				return nil
			}),
		}},
		Reducer: benchReducer{},
		Output:  "out",
	}
}

// BenchmarkRunChain measures wall-clock scaling of one job across worker
// counts, in three shapes: "combined" (benchJob) leaves the shuffle a few
// hundred pairs, so it measures the map phase; "wide" (wideJob) ships
// 40 000 pairs over 10 000 keys, so the shuffle and the reduce key runs
// carry the weight; "wide/warm" runs the wide job on one engine across
// ops, as a session runs its statements, so what the engine carries from
// chain to chain (its scratch, while no collection has taken it) shows,
// where the other shapes build a fresh engine per op. Results are asserted
// identical to the sequential run, so the numbers are comparable by
// construction.
func BenchmarkRunChain(b *testing.B) {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	combined := make([]string, 2000)
	for i := range combined {
		combined[i] = fmt.Sprintf("%s %s %s %s",
			words[i%8], words[(i*3+1)%8], words[(i*5+2)%8], words[(i*7+3)%8])
	}
	wide := make([]string, 5000)
	for i := range wide {
		fields := make([]string, 8)
		for j := range fields {
			fields[j] = fmt.Sprintf("k%04d", (i*8+j)*7919%10000)
		}
		wide[i] = strings.Join(fields, " ")
	}
	cluster := SmallCluster()
	cluster.Cost.SplitSize = 1024 // dozens of map tasks

	for _, shape := range []struct {
		name  string
		lines []string
		job   func() *Job
		warm  bool // one engine for every op
	}{{"combined", combined, benchJob, false}, {"wide", wide, wideJob, false}, {"wide/warm", wide, wideJob, true}} {
		var baseline []string
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", shape.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				defer func() {
					b.ReportMetric(float64(b.N*len(shape.lines))/b.Elapsed().Seconds(), "rows/s")
				}()
				var e *Engine
				for i := 0; i < b.N; i++ {
					if e == nil || !shape.warm {
						dfs := NewDFS()
						dfs.Write("in", shape.lines)
						var err error
						if e, err = NewEngine(dfs, cluster); err != nil {
							b.Fatal(err)
						}
						e.SetWorkers(workers)
					}
					if _, err := e.RunChain([]*Job{shape.job()}); err != nil {
						b.Fatal(err)
					}
					out, err := e.DFS().Read("out")
					if err != nil {
						b.Fatal(err)
					}
					if baseline == nil {
						baseline = out
					} else if !reflect.DeepEqual(out, baseline) {
						b.Fatalf("%s, workers=%d: output differs from sequential baseline", shape.name, workers)
					}
				}
			})
		}
	}
}
