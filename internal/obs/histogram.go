package obs

import "sort"

// numBuckets fixed exponential buckets starting at bucketStart and
// doubling each step cover ~1e-3 .. 1.4e11: microsecond-scale latencies
// through hundred-gigabyte byte counts with one shared layout, so every
// histogram family in a Prometheus scrape has identical `le` bounds.
const (
	numBuckets  = 48
	bucketStart = 1e-3
)

// bucketBounds is the shared upper-bound table (ascending, +Inf implicit).
var bucketBounds = func() []float64 {
	b := make([]float64, numBuckets)
	v := bucketStart
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// Histogram is the distribution payload of a HistogramKind metric: fixed
// exponential bucket counts plus the observations' sum and count, which is
// exactly what the Prometheus exporter writes. Values are expected to be
// non-negative (simulated seconds, bytes, rows); a negative observation
// lands in the first bucket.
type Histogram struct {
	// Bounds are the ascending bucket upper bounds; the final implicit
	// bucket is +Inf. Every histogram shares one fixed exponential layout.
	Bounds []float64
	// Counts holds per-bucket observation counts, len(Bounds)+1 entries
	// with the +Inf bucket last. Counts are NOT cumulative; the Prometheus
	// exporter accumulates them into the spec's cumulative `_bucket` form.
	Counts []uint64
	// Sum and Count are the totals exported as `_sum` and `_count`.
	Sum   float64
	Count uint64
}

// newHistogram returns an empty histogram on the shared bucket layout.
func newHistogram() *Histogram {
	return &Histogram{Bounds: bucketBounds, Counts: make([]uint64, numBuckets+1)}
}

// observe records one value. Callers hold the owning registry's lock.
func (h *Histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.Bounds, v) // first bound >= v; numBuckets means +Inf
	h.Counts[i]++
	h.Sum += v
	h.Count++
}

// clone deep-copies the histogram for Snapshot.
func (h *Histogram) clone() *Histogram {
	cp := &Histogram{Bounds: h.Bounds, Sum: h.Sum, Count: h.Count}
	cp.Counts = append([]uint64(nil), h.Counts...)
	return cp
}

// Observe records v into the named histogram. labels are alternating
// key,value pairs. Recording a histogram under a name previously used as a
// counter or gauge converts the metric (last kind wins, like Set).
func (r *Registry) Observe(name string, v float64, labels ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.metric(name, HistogramKind, labels)
	m.Kind = HistogramKind
	if m.Hist == nil {
		m.Hist = newHistogram()
	}
	m.Hist.observe(v)
}
