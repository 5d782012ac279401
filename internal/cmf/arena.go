package cmf

import (
	"strings"

	"ysmart/internal/exec"
)

// arena is the row storage of one reducer instance: the rows a key group's
// evaluation builds — decoded values, stream buckets, projected, joined,
// filtered and aggregated rows, operator result slices — are carved from it
// and all die together when the next key group resets it. The lifetime
// rule: nothing that outlives Reduce(key) may alias the arena. Output lines
// are freshly encoded strings, one exact string each and never cut from a
// chunk, since the DFS keeps job output and would keep a chunk's slack with
// it; a sort buffer lives on the heap, and a decoded string value points
// into the shuffle value it came from, not into a slab. (The map side has
// the same rule for its scratch row: see mapTask.)
//
// The zero arena is ready to use; one that is never reset allocates exactly
// what its callers ask for, so an operator evaluated on its own behaves as
// if it called make.
type arena struct {
	vals slab[exec.Value] // row storage
	rows slab[exec.Row]   // row headers: stream buckets, operator results
	// The rest is scratch an operator uses within one Eval and hands back
	// grown: JoinOp's matched-pair list; AggOp's accumulators, aggregation
	// groups and group index, handed back cleared, and its group keys.
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

// maxChunkBytes caps the chunk a cutter starts ahead of demand.
const maxChunkBytes = 4 << 10

// cutter copies byte strings into shared chunks and hands them out as
// strings: one allocation per chunk, not one per string. It is a
// strings.Builder that only ever appends, so a string cut earlier never
// changes, and a string keeps its whole chunk alive — a cutter serves
// strings that die together: a map task's pairs, which die with the job's
// shuffle, and an AggOp's group keys, which die with its Eval. A cut that
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

// maxChunks bounds the chunks a slab walks per key group before it trades
// them for one that holds them all.
const maxChunks = 8

// slab hands out windows of chunks it keeps across resets. A chunk is
// allocated only for a request no kept chunk has room for, and at exactly
// the request's size: chunks grow from the demand actually seen, so a cold
// slab costs what the same calls to make would, and a warm one nothing.
type slab[T any] struct {
	chunks [][]T
	cur    int // chunk being carved
	off    int // first free element of chunks[cur]
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
	s.chunks = append(s.chunks, make([]T, n))
	s.off = n
	return s.chunks[s.cur]
}

func (s *slab[T]) reset() {
	if len(s.chunks) > maxChunks {
		// Key groups kept outgrowing the chunks: one chunk as large as all
		// of them holds any group seen so far in a single carve sequence.
		n := 0
		for _, c := range s.chunks {
			n += len(c)
		}
		clear(s.chunks)
		s.chunks = append(s.chunks[:0], make([]T, n))
	}
	s.cur, s.off = 0, 0
}
