package mapreduce

import (
	"fmt"
	"sort"
	"sync"

	"ysmart/internal/obs"
)

// DFS is the simulated distributed file system. Files are ordered lists of
// text lines. The zero value is not usable; call NewDFS.
//
// Ownership rule: a file's line slice is immutable from the moment it is
// installed. Nothing in the tree writes through a slice it got from Read or
// passed to WriteShared; replacing a file's content replaces the map entry
// (Write, WriteShared, Delete), never the elements. That is what lets one
// slice back any number of files in any number of DFSs at once — a base
// table under every session, a reuse artifact under every query it serves —
// and lets a reader keep iterating a file that has since been replaced.
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

	// writeObs, when set, is invoked with the path of every Write and
	// Delete — the hook validity-epoch tracking (internal/reuse) hangs
	// off so materialized artifacts derived from a path stop being served
	// the moment the path's content changes. Called under the DFS lock:
	// observers must be fast and must never call back into the DFS.
	writeObs func(path string)
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

// observe records one DFS access on the tracer and registry. With both
// off it returns before sizing the lines, which costs O(lines).
func (d *DFS) observe(op, path string, lines []string) {
	traced := d.tracer.Enabled()
	if !traced && d.metrics == nil {
		return
	}
	bytes := linesBytes(lines)
	if traced {
		d.tracer.Emit(obs.InstantEvent("dfs", "dfs."+op, "dfs", d.now(),
			obs.F("path", path), obs.F("records", int64(len(lines))), obs.F("bytes", bytes)))
	}
	d.metrics.Add("ysmart_dfs_"+op+"s_total", 1)
	d.metrics.Add("ysmart_dfs_"+op+"_bytes_total", float64(bytes))
}

// FileNotFoundError reports a read of a missing path.
type FileNotFoundError struct{ Path string }

// Error implements the error interface.
func (e *FileNotFoundError) Error() string {
	return fmt.Sprintf("dfs: file %q not found", e.Path)
}

// SetWriteObserver registers fn to be called with the path of every
// subsequent Write and Delete (nil unregisters). The callback runs under
// the DFS write lock so mutation and notification are atomic; it must not
// call back into the DFS.
func (d *DFS) SetWriteObserver(fn func(path string)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writeObs = fn
}

// notifyWrite invokes the write observer; callers hold the write lock.
func (d *DFS) notifyWrite(path string) {
	if d.writeObs != nil {
		d.writeObs(path)
	}
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
	d.observe("write", path, lines)
	d.notifyWrite(path)
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
	d.observe("read", path, lines)
	return lines, nil
}

// Exists reports whether path is present.
func (d *DFS) Exists(path string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.files[path]
	return ok
}

// Delete removes path; deleting a missing path is a no-op.
func (d *DFS) Delete(path string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.files, path)
	d.notifyWrite(path)
}

// SizeBytes returns the byte size of path's content (line bytes plus one
// newline per line), or 0 if absent.
func (d *DFS) SizeBytes(path string) int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var n int64
	for _, l := range d.files[path] {
		n += int64(len(l)) + 1
	}
	return n
}

// List returns all paths in sorted order.
func (d *DFS) List() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.files))
	for p := range d.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// linesBytes computes the encoded size of a line batch.
func linesBytes(lines []string) int64 {
	var n int64
	for _, l := range lines {
		n += int64(len(l)) + 1
	}
	return n
}
