package cmf

import (
	"strings"
	"sync"
	"weak"

	"ysmart/internal/exec"
)

// arena is the row storage of a reducer instance: the rows a key group's
// evaluation builds — decoded values, stream buckets, projected, joined,
// filtered and aggregated rows, operator result slices — are carved from it
// and all die together when the next key group resets it. The lifetime
// rule: nothing that outlives Reduce(key) may alias the arena. Output lines
// outlive it, so they are cut from the instance's own line chunks, not from
// the arena: a chunk holds lines of one job's output, written by one
// instance in one phase, and dies with that output (see reduceTask). A
// sort buffer lives on the heap, and a decoded string value points into the
// shuffle value it came from, not into a slab. (The map side has the same
// rule for its scratch row: see mapTask.)
//
// An instance takes its arena from the free list (arenas) and gives it back,
// released, at Done, so the next instance — of any job, any statement —
// starts on the chunks earlier ones grew while no collection has taken the
// list, as a task object on Hadoop keeps its buffers from task to task
// under JVM reuse. The zero arena is ready to use. Its slabs size chunks by the demand seen, doubling (see slab), so
// one that is never reset, as when an operator is evaluated on its own,
// allocates its first request exactly and then a chunk per doubling of what
// it holds.
type arena struct {
	vals slab[exec.Value] // row storage
	rows slab[exec.Row]   // row headers: stream buckets, operator results
	// The rest is scratch an operator uses within one Eval and hands back
	// grown: JoinOp's matched-pair list; AggOp's accumulators, reset in
	// place by the next Eval so COUNT(DISTINCT) sets carry over, its
	// aggregation groups and group index, handed back cleared, and its
	// group keys.
	ints   []int
	accs   []exec.Acc
	groups []aggGroup
	index  map[string]int
	keys   cutter
}

// reset recycles every carving.
func (a *arena) reset() {
	a.vals.reset()
	a.rows.reset()
}

// release readies the arena for the free list: it clears every value and
// string the arena holds — the slabs' carvings up to their high-water
// marks, the accumulators (a MIN or MAX holds a value that may point into a
// shuffle value), the aggregation groups and the group index — so a pooled
// arena pins no chunk of a finished job. The chunks' capacity stays.
func (a *arena) release() {
	a.vals.release()
	a.rows.release()
	clear(a.accs[:cap(a.accs)])
	clear(a.groups[:cap(a.groups)])
	clear(a.index)
}

// arenaPool is the free list of released arenas. It is held only through a
// weak pointer, so between statements, when every arena is back on it,
// nothing strongly reaches it: the next collection reclaims it and every
// arena on it, the live heap after one never counts them, and the next
// instance starts a new list. (A sync.Pool would not do: its victim cache
// survives one collection, so the arenas would count in the live heap the
// collector paces by.) Instances of concurrent statements share it under
// the mutex; an arena is one instance's at a time.
type arenaPool struct {
	mu   sync.Mutex
	free weak.Pointer[[]*arena]
}

// arenas is the reducer instances' free list.
var arenas arenaPool

// get takes the arena released last, or a new one when none is free.
func (p *arenaPool) get() *arena {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.free.Value()
	if l == nil || len(*l) == 0 {
		return new(arena)
	}
	a := (*l)[len(*l)-1]
	(*l)[len(*l)-1] = nil
	*l = (*l)[:len(*l)-1]
	return a
}

// put releases a and returns it to the free list, starting a new list if
// the collector took the last.
func (p *arenaPool) put(a *arena) {
	a.release()
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.free.Value()
	if l == nil {
		l = new([]*arena)
		p.free = weak.Make(l)
	}
	*l = append(*l, a)
}

// maxChunkBytes caps the chunk a cutter starts ahead of demand.
const maxChunkBytes = 4 << 10

// cutter copies byte strings into shared chunks and hands them out as
// strings: one allocation per chunk, not one per string. It is a
// strings.Builder that only ever appends, so a string cut earlier never
// changes, and a string keeps its whole chunk alive — a cutter serves
// strings that die together: a reducer instance's output lines, which die
// with the job's output, and an AggOp's group keys, which die with its
// Eval. (The map side's pairs go to the worker's mapreduce.Output, whose
// chunks follow the same policy.) A cut that
// does not fit starts a new chunk sized by demand: the request, or every
// byte cut so far if that is larger, capped at maxChunkBytes. Like the
// slabs it has no floor: the first chunk is the first request, and a cold
// cutter allocates a chunk per doubling of what it has cut.
type cutter struct {
	b strings.Builder
	n int // bytes cut so far
}

// cut returns a string holding a copy of p.
func (c *cutter) cut(p []byte) string {
	if c.b.Cap()-c.b.Len() < len(p) {
		c.b.Reset() // the old chunk stays with the strings cut from it
		c.b.Grow(max(len(p), min(c.n, maxChunkBytes)))
	}
	c.b.Write(p)
	c.n += len(p)
	s := c.b.String()
	return s[len(s)-len(p):]
}

// slab hands out windows of chunks it keeps across resets and never
// consolidates. A chunk is allocated only for a request no kept chunk has
// room for, and then at the request's size or at everything the slab
// already holds, whichever is larger, so capacity doubles with each chunk:
// a slab whose key groups spanned at most n elements (what they took plus
// the slack they skipped at the ends of chunks) holds at most
// ceil(log2(n/first request))+1 chunks. There is no floor: a cold slab's
// first chunk is exactly its first request, and a warm one allocates
// nothing. It records the furthest any key group carved since its last
// release, so releasing clears what was written and not every chunk held.
type slab[T any] struct {
	chunks [][]T
	held   int // elements in chunks
	cur    int // chunk being carved
	off    int // first free element of chunks[cur]
	// hiCur and hiOff are the furthest (cur, off) since the last release.
	hiCur, hiOff int
}

// take returns n elements to be overwritten (nil for none), capped so that
// an append cannot reach the next carving.
func (s *slab[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	for ; s.cur < len(s.chunks); s.cur, s.off = s.cur+1, 0 {
		if c := s.chunks[s.cur]; len(c)-s.off >= n {
			s.off += n
			return c[s.off-n : s.off : s.off]
		}
	}
	c := make([]T, max(n, s.held))
	s.chunks = append(s.chunks, c)
	s.held += len(c)
	s.off = n
	return c[:n:n]
}

func (s *slab[T]) reset() {
	s.mark()
	s.cur, s.off = 0, 0
}

// mark raises the high-water mark to the carving position.
func (s *slab[T]) mark() {
	if s.cur > s.hiCur || s.cur == s.hiCur && s.off > s.hiOff {
		s.hiCur, s.hiOff = s.cur, s.off
	}
}

// release zeroes every element carved since the last release and resets.
func (s *slab[T]) release() {
	s.mark()
	for _, c := range s.chunks[:s.hiCur] {
		clear(c)
	}
	if s.hiCur < len(s.chunks) {
		clear(s.chunks[s.hiCur][:s.hiOff])
	}
	s.cur, s.off, s.hiCur, s.hiOff = 0, 0, 0, 0
}
