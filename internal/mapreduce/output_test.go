package mapreduce

import (
	"fmt"
	"math/rand"
	"reflect"
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
			out.endJob()
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
