package mapreduce

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"ysmart/internal/obs"
)

// DFS is the simulated distributed file system. Files are ordered lists of
// text lines. The zero value is not usable; call NewDFS.
//
// Ownership rule: a file's line slice is immutable from the moment it is
// installed. Nothing in the tree writes through a slice it got from Read or
// passed to WriteShared; replacing a file's content replaces the map entry
// (Write, WriteShared), never the elements. That is what lets one
// slice back any number of files in any number of DFSs at once — a base
// table under every session, a reuse artifact under every query it serves —
// and lets a reader keep iterating a file that has since been replaced.
//
// Writes notify nobody: whoever must know whether a file still holds the
// bytes it once read compares Digest values.
//
// All methods are safe for concurrent use: the engine's worker pool may
// read while the driver writes other paths. Observation (trace instants,
// counters) happens under the same lock as the file-map access so readers
// never see a torn path/length pair.
type DFS struct {
	mu    sync.RWMutex
	files map[string][]string

	tracer  *obs.Collector
	metrics *obs.Registry
	clock   func() float64
}

// NewDFS returns an empty file system.
func NewDFS() *DFS {
	return &DFS{files: make(map[string][]string)}
}

// Instrument attaches a tracer and metrics registry. Read and write
// instants are stamped with clock() — the engine passes its simulated
// clock, so DFS events line up with job spans. A nil tracer or registry
// turns that sink off.
func (d *DFS) Instrument(t *obs.Collector, r *obs.Registry, clock func() float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tracer = t
	d.metrics = r
	d.clock = clock
}

// now returns the instrumented clock reading (0 before Instrument).
func (d *DFS) now() float64 {
	if d.clock == nil {
		return 0
	}
	return d.clock()
}

// observe records one DFS access on the tracer (instant) and registry (the
// count and bytes counters; callers spell the names out, so observing
// builds no string). With both off it returns before sizing the lines,
// which costs O(lines).
func (d *DFS) observe(path string, lines []string, instant, count, bytes string) {
	traced := d.tracer.Enabled()
	if !traced && d.metrics == nil {
		return
	}
	n := linesBytes(lines)
	if traced {
		d.tracer.Emit(obs.InstantEvent("dfs", instant, "dfs", d.now(),
			obs.F("path", path), obs.F("records", int64(len(lines))), obs.F("bytes", n)))
	}
	d.metrics.Add(count, 1)
	d.metrics.Add(bytes, float64(n))
}

// FileNotFoundError reports a read of a missing path.
type FileNotFoundError struct{ Path string }

// Error implements the error interface.
func (e *FileNotFoundError) Error() string {
	return fmt.Sprintf("dfs: file %q not found", e.Path)
}

// Write stores lines at path, replacing any previous content. The slice is
// copied, so the caller stays free to reuse it.
func (d *DFS) Write(path string, lines []string) {
	cp := make([]string, len(lines))
	copy(cp, lines)
	d.WriteShared(path, cp)
}

// WriteShared is Write without the copy: lines itself becomes the file, under
// the ownership rule above — the caller may keep reading it and may install
// it elsewhere, but nobody may ever write to it again. The engine stores job
// output this way (slices it built and drops on return), the reuse rewrite
// installs stored artifacts, and the server preloads every session with its
// base tables, so those cost O(1) per file instead of O(lines).
func (d *DFS) WriteShared(path string, lines []string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.files[path] = lines
	d.observe(path, lines, "dfs.write", "ysmart_dfs_writes_total", "ysmart_dfs_write_bytes_total")
}

// Read returns the lines of path. The returned slice is shared; callers
// must not mutate it.
func (d *DFS) Read(path string) ([]string, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	lines, ok := d.files[path]
	if !ok {
		return nil, &FileNotFoundError{Path: path}
	}
	d.observe(path, lines, "dfs.read", "ysmart_dfs_reads_total", "ysmart_dfs_read_bytes_total")
	return lines, nil
}

// Retain removes every file whose path keep does not hold and returns how
// many it removed. Only map entries go: the line slices are never written
// (ownership rule above), so a base table or a reuse artifact another DFS
// or the store still holds is untouched, and a reader still iterating a
// removed file keeps its lines. Like SizeBytes it is unobserved.
func (d *DFS) Retain(keep map[string]bool) (removed int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for path := range d.files {
		if !keep[path] {
			delete(d.files, path)
			removed++
		}
	}
	return removed
}

// SizeBytes returns the byte size of path's content (line bytes plus one
// newline per line), or 0 if absent.
func (d *DFS) SizeBytes(path string) int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return linesBytes(d.files[path])
}

// Digest returns a non-zero 64-bit digest of path's content — the first 8
// bytes of the SHA-256 of its lines, each followed by a newline (the bytes
// SizeBytes counts) — or false if path is absent. Like SizeBytes it is
// unobserved: no trace instant, no counter.
func (d *DFS) Digest(path string) (int64, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	lines, ok := d.files[path]
	if !ok {
		return 0, false
	}
	h := sha256.New()
	var line []byte
	for _, l := range lines {
		line = append(append(line[:0], l...), '\n')
		h.Write(line)
	}
	if v := int64(binary.BigEndian.Uint64(h.Sum(nil))); v != 0 {
		return v, true
	}
	return 1, true
}

// linesBytes computes the encoded size of a line batch.
func linesBytes(lines []string) int64 {
	var n int64
	for _, l := range lines {
		n += int64(len(l)) + 1
	}
	return n
}
