package obs

import (
	"math"
	"sort"
)

// maxExactSamples bounds the raw observations a histogram retains for
// exact quantiles. Up to this many observations Quantile answers from the
// sorted raw samples (exact-count estimation); beyond it the histogram
// stops retaining samples and Quantile falls back to linear interpolation
// inside the exponential buckets. The cap keeps a long-running recorder's
// memory bounded while load runs of a few thousand queries still get
// exact percentiles.
const maxExactSamples = 4096

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
// exponential bucket counts for Prometheus export plus (up to
// maxExactSamples) the raw observations for exact quantile estimation.
// Values are expected to be non-negative (simulated seconds, bytes, rows);
// a negative observation lands in the first bucket.
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
	// Samples retains raw observations while Count <= maxExactSamples
	// (insertion order; Quantile sorts a copy).
	Samples []float64
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
	if h.Count <= maxExactSamples {
		h.Samples = append(h.Samples, v)
	} else {
		h.Samples = nil // past the cap the raw set is no longer complete
	}
}

// clone deep-copies the histogram for Snapshot.
func (h *Histogram) clone() *Histogram {
	cp := &Histogram{Bounds: h.Bounds, Sum: h.Sum, Count: h.Count}
	cp.Counts = append([]uint64(nil), h.Counts...)
	cp.Samples = append([]float64(nil), h.Samples...)
	return cp
}

// Quantile estimates the q-quantile (q in [0,1]) of the recorded
// distribution. While the histogram still holds its complete raw sample
// set the answer is exact (nearest-rank on the sorted samples); afterwards
// it is linearly interpolated inside the exponential bucket containing the
// target rank. An empty histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	if uint64(len(h.Samples)) == h.Count {
		s := append([]float64(nil), h.Samples...)
		sort.Float64s(s)
		rank := int(math.Ceil(q * float64(len(s))))
		if rank < 1 {
			rank = 1
		}
		return s[rank-1]
	}
	target := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		cum += float64(c)
		if cum < target {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		if i >= len(h.Bounds) {
			// +Inf bucket: the last finite bound is the best answer.
			return h.Bounds[len(h.Bounds)-1]
		}
		frac := (target - (cum - float64(c))) / float64(c)
		return lo + frac*(h.Bounds[i]-lo)
	}
	return h.Bounds[len(h.Bounds)-1]
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

// Quantile estimates the q-quantile of the named histogram. The bool is
// false when no such histogram exists. Like Value, it is a non-mutating
// read: a miss does not create the metric.
func (r *Registry) Quantile(name string, q float64, labels ...string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.metrics[metricKey(name, pairLabels(labels))]
	if !ok || m.Hist == nil {
		return 0, false
	}
	return m.Hist.Quantile(q), true
}
