package mapreduce

import "unsafe"

// pairChunkBytes caps the chunk an Output starts ahead of demand.
const pairChunkBytes = 4 << 10

// Output is where a pool worker's map instances write their pairs, laid out
// the way Hadoop's map-output buffer lays them out: the bytes of every pair,
// its key and then its value, back to back in append-only chunks, and an
// index of two int32 offsets a pair (where its key ends and where its value
// ends) that the garbage collector never scans. Emit copies what it is
// given, so a mapper may emit strings that view scratch it reuses.
//
// The engine keeps one Output per pool worker and carries it from job to
// job (Engine.outputs). Each morsel a worker maps, and each simulated task
// it combines, writes one list: begin opens it, take closes it. A list's
// index is a window of an array the worker's scratch lends the Output for
// the job (scratch.go), list after list, as a key group is a window of the
// shuffle's values slab; an array too small for the open list is replaced
// (growIndex). The scratch lends two more arrays: a free list of empty
// chunks, which a new chunk is taken from before one is allocated (lent
// only to a job with a reducer: scratch.lend), and a log of the chunks the
// job started. A chunk is never written below its end within a job, so a
// string that views it — a pair in the shuffle, a map-only output line the
// DFS keeps — stands while the job runs. At a
// job's end, endJob drops the job's lists and hands the lent arrays back;
// the segment log's array stays for the next job. If no line the DFS keeps
// views a chunk the job started (scratch.viewed), those chunks go on the
// free list, emptied, and later jobs write them again, as Hadoop rewrites
// its map-output buffer spill after spill; otherwise they die with the
// last string that views them, and the open chunk stays for the next job,
// so a job does not start its chunks from empty. A chunk is sized by
// demand — the pair, or every byte the Output has taken so far if that is
// larger, capped at pairChunkBytes — and no pair straddles two chunks, so
// a pair longer than the cap has a chunk of its own.
type Output struct {
	buf      []byte    // the open chunk: what was written to it, its capacity the chunk's size
	n        int       // bytes taken so far
	start    int       // where the open segment begins in buf
	segFirst int       // the open segment's first pair, an index into the open list
	index    []int32   // the array the open list indexes: two offsets a pair, from its segment's start
	listAt   int       // where the open list's offsets begin in index
	segs     []segment // the job's segments closed so far; the open list's are segs[first:]
	first    int
	free     [][]byte // empty chunks, lent for the job: the last is taken first
	started  [][]byte // the chunks the job started, each logged empty, lent for the job
	emit     Emit     // the Emit method value, built once
}

// segment is a run of one list's pairs that lie back to back in one chunk.
type segment struct {
	s     string // the run's bytes, from its first pair's key to its last pair's value
	first int    // its first pair, an index into the list
}

// Emit copies key and value into the Output as one pair of the open list.
func (o *Output) Emit(key, value string) {
	off := o.reserve(len(key) + len(value))
	o.buf = append(append(o.buf, key...), value...)
	if cap(o.index)-len(o.index) < 2 {
		o.growIndex(2)
	}
	o.index = append(o.index, int32(off+len(key)), int32(off+len(key)+len(value)))
}

// growIndex makes room in the index for n more offsets. The lists taken so
// far keep the array they are windows of; a new one, at least twice as
// large, takes the open list's offsets and what follows them, so a job
// that outgrows the index allocates about its own size and copies no
// closed list.
func (o *Output) growIndex(n int) {
	if cap(o.index)-len(o.index) >= n {
		return
	}
	open := o.index[o.listAt:]
	index := make([]int32, len(open), max(2*cap(o.index), len(open)+n))
	copy(index, open)
	o.index, o.listAt = index, 0
}

// emitter returns Emit as a method value, built on the first call: the
// Emit the engine gives the worker's map instances.
func (o *Output) emitter() Emit {
	if o.emit == nil {
		o.emit = o.Emit
	}
	return o.emit
}

// reserve makes room in the open chunk for a pair of n bytes and returns
// the offset, from the open segment's start, at which the pair goes. A
// pair that does not fit closes the segment and starts a chunk.
func (o *Output) reserve(n int) int {
	if cap(o.buf)-len(o.buf) < n {
		o.closeSegment()
		o.buf = o.newChunk(n)
		o.start = 0
	}
	o.n += n
	return len(o.buf) - o.start
}

// newChunk returns an empty chunk with room for n bytes, which the job
// starts: the free list's last if it has the room, or a new one sized by
// demand.
func (o *Output) newChunk(n int) []byte {
	var c []byte
	if k := len(o.free) - 1; k >= 0 && cap(o.free[k]) >= n {
		c, o.free[k], o.free = o.free[k], nil, o.free[:k]
	} else {
		c = make([]byte, 0, max(n, min(o.n, pairChunkBytes)))
	}
	o.started = append(o.started, c)
	return c
}

// openSegment returns the open segment's bytes. They are never written
// again — the chunk only grows past them — so a string may hold them.
func (o *Output) openSegment() string {
	b := o.buf[o.start:]
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// closeSegment records the open segment, if it holds a pair, and opens the
// next at the chunk's end.
func (o *Output) closeSegment() {
	n := (len(o.index) - o.listAt) / 2
	if n > o.segFirst {
		o.segs = append(o.segs, segment{s: o.openSegment(), first: o.segFirst})
	}
	o.start, o.segFirst = len(o.buf), n
}

// begin opens a list, with room in the index for n more pairs: a morsel's
// line count or a combined task's key count. On an index carried from
// earlier jobs the room is mostly there already; where it is not, the
// index doubles, so a mapper that emits several pairs a line regrows it a
// few times per scratch and not once a morsel. The list's segments go to
// the Output's log, which grows with the job and not with the list.
func (o *Output) begin(n int) {
	o.listAt = len(o.index)
	o.growIndex(2 * n)
	o.first, o.start, o.segFirst = len(o.segs), len(o.buf), 0
}

// take closes the open list and returns it.
func (o *Output) take() pairList {
	o.closeSegment()
	n := len(o.index)
	l := pairList{ends: o.index[o.listAt:n:n], segs: o.segs[o.first:len(o.segs):len(o.segs)]}
	for _, s := range l.segs {
		l.bytes += int64(len(s.s))
	}
	l.bytes += 2 * int64(l.len()) // a separator after the key and one after the value
	return l
}

// endJob drops the job's lists from the Output, once nothing reads them,
// and returns the arrays the scratch lent it — the index, emptied, the
// free list and the log of the chunks the job started — so the Output
// keeps no reference to them between jobs; its segment log keeps its
// array but no string. If recycle is set, no string views a chunk the job
// started (scratch.viewed), so each goes on the free list, emptied, the
// open chunk with them; a chunk the job found open is never among them,
// since a string may view its head. Otherwise the started chunks die with
// the last string that views them, and the open chunk's free bytes serve
// the next job, unless it is longer than the cap: then it is one long
// pair's and full, and the Output lets it go too.
func (o *Output) endJob(recycle bool) (index []int32, free, started [][]byte) {
	clear(o.segs)
	index, o.index, o.listAt, o.segs = o.index[:0], nil, 0, o.segs[:0]
	free, started, o.free, o.started = o.free, o.started, nil, nil
	if recycle && len(started) > 0 {
		free = append(free, started...)
		o.buf = nil // the last chunk started
	}
	clear(started)
	if cap(o.buf) > pairChunkBytes {
		o.buf = nil
	}
	return index, free, started[:0]
}

// pairList is the map output of one unit of host work — a morsel, or a
// simulated task once its combiner ran — as the index and segments of an
// Output's list, with the counters the driver sums.
type pairList struct {
	ends     []int32   // two offsets a pair: see Output
	segs     []segment // segs[i] holds the pairs from segs[i].first to segs[i+1].first
	bytes    int64     // encoded size of the pairs
	filtered int64     // lines the mapper reported as ErrFiltered
}

// len returns the number of pairs.
func (l *pairList) len() int { return len(l.ends) / 2 }

// segment returns segment i's bytes and the range of pairs it holds: pair
// p's key ends at ends[2p] and its value at ends[2p+1], and it begins where
// the pair before it in the segment ends, or at 0.
func (l *pairList) segment(i int) (s string, first, end int) {
	end = l.len()
	if i+1 < len(l.segs) {
		end = l.segs[i+1].first
	}
	return l.segs[i].s, l.segs[i].first, end
}
