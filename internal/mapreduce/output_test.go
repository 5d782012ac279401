package mapreduce

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// TestMapTaskPairsStayPut is the Output's lifetime proof: every pair read
// back from a closed list still equals what the mapper emitted after the
// Output has taken thousands more pairs — pairs of random sizes, some
// longer than a chunk's cap, emitted as views of a buffer the mapper
// reuses, in morsels of random lengths, between lines that emit nothing,
// over several jobs that each carry the Output's open chunk to the next.
// The across-jobs promise is for jobs that do not recycle their chunks:
// one that does frees them for the next (TestRecycledChunksKeepOutputs).
func TestMapTaskPairsStayPut(t *testing.T) {
	var emitted []kv
	var buf []byte // reused from line to line: Emit copies the views emitted
	task := MapperFunc(func(line string, emit Emit) error {
		key, value, _ := strings.Cut(line, "|")
		if strings.HasPrefix(key, "0") {
			return nil // a line that emits nothing
		}
		buf = append(append(buf[:0], key...), value...)
		s := unsafe.String(unsafe.SliceData(buf), len(buf))
		emit(s[:len(key)], s[len(key):])
		emitted = append(emitted, kv{key, value})
		return nil
	})
	rng := rand.New(rand.NewSource(5))
	var out Output
	var early []kv // the pairs as read back from each list when it closed
	lines, jobs := 0, 0
	for lines < 5000 {
		morsel := make([]string, 1+rng.Intn(300))
		for i := range morsel {
			n := rng.Intn(40)
			if rng.Intn(200) == 0 {
				n = pairChunkBytes + rng.Intn(2*pairChunkBytes)
			}
			morsel[i] = fmt.Sprintf("%d|%s", rng.Intn(1000), strings.Repeat(string(rune('a'+(lines+i)%26)), n))
		}
		l, err := runMapper(task, morsel, &out)
		if err != nil {
			t.Fatal(err)
		}
		early = append(early, pairsOf(&l)...)
		lines += len(morsel)
		if rng.Intn(4) == 0 {
			out.endJob(false)
			jobs++
		}
	}
	long := 0
	for _, p := range emitted {
		if len(p.key)+len(p.value) > pairChunkBytes {
			long++
		}
	}
	if !reflect.DeepEqual(early, emitted) {
		for i := range min(len(early), len(emitted)) {
			if early[i] != emitted[i] {
				t.Fatalf("pair %d of %d changed after later writes: %q|%.40q, emitted as %q|%.40q", i, len(emitted), early[i].key, early[i].value, emitted[i].key, emitted[i].value)
			}
		}
		t.Fatalf("the lists read back as %d pairs, %d were emitted", len(early), len(emitted))
	}
	if long == 0 || jobs == 0 || len(emitted) == 0 || len(emitted) == lines {
		t.Fatalf("%d pairs from %d lines in %d jobs, %d longer than a chunk's cap: not the mix this test is about", len(emitted), lines, jobs, long)
	}
}

// TestRecycledChunksKeepOutputs is the free list's safety proof: a job's
// pair chunks serve a later job only when no line the DFS keeps views
// them. On one engine, its scratch held as a chain holds it, run a job
// whose reducer emits its keys and values as they stand, then a map-only
// job, then chains of jobs whose reducers copy their lines, which recycle,
// then a map-only job again and one more chain. After every job, every
// file the DFS kept still equals the copy taken when it was written, and
// each chain's files equal a fresh engine's, at 1, 2 and 8 workers. A
// map-only job's lines are its pairs, so it is never lent the free list:
// the one between the chains leaves the list as the chains left it.
func TestRecycledChunksKeepOutputs(t *testing.T) {
	asTheyStand := ReducerFunc(func(key string, values []string, emit func(string)) error {
		emit(key)
		for _, v := range values {
			emit(v)
		}
		return nil
	})
	mapOnly := MapperFunc(func(line string, emit Emit) error {
		key, value, _ := strings.Cut(line, " ")
		emit("", value+" "+key)
		return nil
	})
	// chain is scratchChain writing files of its own: sums<i> and out<i>.
	chain := func(i int) []*Job {
		jobs := scratchChain()
		jobs[0].Output = fmt.Sprintf("sums%d", i)
		jobs[1].Inputs[1].Path, jobs[1].Output = jobs[0].Output, fmt.Sprintf("out%d", i)
		return jobs
	}
	engine := func(workers int) *Engine {
		dfs := NewDFS()
		dfs.Write("a", geometryInput(5000, 400, 0))
		dfs.Write("b", geometryInput(3000, 400, 3))
		e, err := NewEngine(dfs, geometryCluster())
		if err != nil {
			t.Fatal(err)
		}
		e.SetWorkers(workers)
		return e
	}
	read := func(e *Engine, path string) []string {
		lines, err := e.DFS().Read(path)
		if err != nil {
			t.Fatal(err)
		}
		return lines
	}
	const chains = 3
	for _, workers := range []int{1, 2, 8} {
		fresh := engine(workers)
		if _, err := fresh.RunChain(chain(0)); err != nil {
			t.Fatal(err)
		}
		wantSums, wantOut := read(fresh, "sums0"), read(fresh, "out0")

		e := engine(workers)
		sc := e.scratch() // as RunChainContext holds it, so no collection takes the free list
		kept := map[string][]string{}
		keep := func(path, after string) {
			for p, want := range kept {
				if got := read(e, p); !slices.Equal(got, want) {
					t.Fatalf("workers=%d: %s changed after %s: a chunk its lines view was written again", workers, p, after)
				}
			}
			lines := read(e, path)
			clone := make([]string, len(lines))
			for i, l := range lines {
				clone[i] = strings.Clone(l)
			}
			kept[path] = clone
		}
		job := geometryJob(geometryMapper())
		job.Name, job.Reducer, job.Output = "as-they-stand", asTheyStand, "stand"
		if _, err := e.RunChain([]*Job{job}); err != nil {
			t.Fatal(err)
		}
		keep("stand", "its own job")
		mapOnlyJob := func(path string) {
			job := &Job{Name: "map-only", Inputs: []Input{{Path: "a", Mapper: mapOnly}}, Output: path}
			if _, err := e.RunChain([]*Job{job}); err != nil {
				t.Fatal(err)
			}
			keep(path, "a map-only job")
		}
		freeLen := func() int {
			n := 0
			for w := range sc.workers {
				n += len(sc.workers[w].chunks)
			}
			return n
		}
		mapOnlyJob("maponly")
		if freed := freeLen(); freed != 0 {
			t.Fatalf("workers=%d: %d chunks freed by jobs whose output lines view them", workers, freed)
		}
		for i := range chains + 1 {
			if i == chains {
				before := freeLen()
				mapOnlyJob("maponly2")
				if after := freeLen(); after != before {
					t.Fatalf("workers=%d: a map-only job left %d free chunks of %d", workers, after, before)
				}
			}
			if _, err := e.RunChain(chain(i)); err != nil {
				t.Fatal(err)
			}
			sums, out := fmt.Sprintf("sums%d", i), fmt.Sprintf("out%d", i)
			if !slices.Equal(read(e, sums), wantSums) || !slices.Equal(read(e, out), wantOut) {
				t.Fatalf("workers=%d: chain %d on recycled chunks differs from a fresh engine's", workers, i)
			}
			keep(sums, fmt.Sprintf("chain %d", i))
			keep(out, fmt.Sprintf("chain %d", i))
		}
		if freeLen() == 0 {
			t.Fatalf("workers=%d: the copying chains freed no chunk: not the run this test is about", workers)
		}
		runtime.KeepAlive(sc)
	}
}
