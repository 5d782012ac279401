package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// MetricKind distinguishes counters, gauges and histograms.
type MetricKind int

// Metric kinds.
const (
	// CounterKind is a monotonically accumulated value.
	CounterKind MetricKind = iota
	// GaugeKind is a last-write-wins value.
	GaugeKind
	// HistogramKind is a distribution: fixed exponential buckets plus
	// exact-count quantile estimation (see Histogram).
	HistogramKind
)

// Metric is one named value with optional labels.
type Metric struct {
	Name string
	// Labels are sorted key/value pairs.
	Labels [][2]string
	Kind   MetricKind
	// Value holds the counter or gauge value (unused for histograms).
	Value float64
	// Hist holds the distribution of a HistogramKind metric (nil otherwise).
	Hist *Histogram
}

// promEscapeValue escapes a label value per the Prometheus text exposition
// format: only backslash, double-quote and line-feed have escape sequences
// (`\\`, `\"`, `\n`); every other byte — tabs, control characters,
// non-ASCII UTF-8 — passes through verbatim. This deliberately differs
// from Go's %q, which would emit \t and \uXXXX sequences Prometheus
// parsers read literally.
var promEscapeValue = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// LabelString renders the labels as `{k="v",...}` (empty for none), with
// values escaped for the Prometheus text exposition format.
func (m Metric) LabelString() string {
	if len(m.Labels) == 0 {
		return ""
	}
	parts := make([]string, len(m.Labels))
	for i, kv := range m.Labels {
		parts[i] = fmt.Sprintf(`%s="%s"`, kv[0], promEscapeValue.Replace(kv[1]))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Registry accumulates named counters, gauges and histograms. It is safe
// for concurrent use. The zero value is not usable; call NewRegistry. A nil
// *Registry is metrics off: Add, Set and Observe do nothing, and Value,
// Quantile and Snapshot read back zero.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*Metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*Metric)}
}

// pairLabels turns alternating key,value strings into sorted pairs;
// a trailing unpaired key is dropped.
func pairLabels(labels []string) [][2]string {
	n := len(labels) / 2
	if n == 0 {
		return nil
	}
	out := make([][2]string, n)
	for i := 0; i < n; i++ {
		out[i] = [2]string{labels[2*i], labels[2*i+1]}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// metricKey builds the registry map key of a name + sorted label set.
func metricKey(name string, pairs [][2]string) string {
	key := name
	for _, kv := range pairs {
		key += "\x00" + kv[0] + "\x01" + kv[1]
	}
	return key
}

func (r *Registry) metric(name string, kind MetricKind, labels []string) *Metric {
	pairs := pairLabels(labels)
	key := metricKey(name, pairs)
	m, ok := r.metrics[key]
	if !ok {
		m = &Metric{Name: name, Labels: pairs, Kind: kind}
		r.metrics[key] = m
	}
	return m
}

// Add accumulates delta into the named counter. labels are alternating
// key,value pairs.
func (r *Registry) Add(name string, delta float64, labels ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metric(name, CounterKind, labels).Value += delta
}

// Set stores v into the named gauge. labels are alternating key,value pairs.
func (r *Registry) Set(name string, v float64, labels ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.metric(name, GaugeKind, labels)
	m.Kind = GaugeKind
	m.Value = v
}

// Value returns the current value of a counter or gauge. It is a strictly
// non-mutating read: a metric that was never recorded reports 0 and is NOT
// created — Snapshot and the Prometheus dump are unaffected by reads of
// absent names. (Histograms report 0 here; read them via Quantile or
// Snapshot.)
func (r *Registry) Value(name string, labels ...string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[metricKey(name, pairLabels(labels))]; ok {
		return m.Value
	}
	return 0
}

// Snapshot returns every metric sorted by name, then label string — a
// deterministic order for exporters and tests.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		cp := *m
		cp.Labels = append([][2]string(nil), m.Labels...)
		if m.Hist != nil {
			cp.Hist = m.Hist.clone()
		}
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].LabelString() < out[j].LabelString()
	})
	return out
}
