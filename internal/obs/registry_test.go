package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// concatKey is the registry key as it was built by concatenation before
// lookups rendered it on the stack: the name, then "\x00key\x01value" for
// each sorted pair.
func concatKey(name string, pairs [][2]string) string {
	key := name
	for _, kv := range pairs {
		key += "\x00" + kv[0] + "\x01" + kv[1]
	}
	return key
}

// TestMetricKeyMatchesPairs holds the stack-rendered key to the pairs a
// new series stores: for random label lists — repeated keys, more pairs
// than the stack holds, a trailing unpaired key — the key is the pairs'
// concatenation, byte for byte.
func TestMetricKeyMatchesPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		labels := make([]string, rng.Intn(24))
		for i := range labels {
			labels[i] = fmt.Sprint(rng.Intn(5))
		}
		want := concatKey("m", pairLabels(labels))
		if got := string(appendMetricKey(nil, "m", labels)); got != want {
			t.Fatalf("labels %q: key %q, want %q", labels, got, want)
		}
	}
}

// TestAllocBudgetRegistry pins what recording into an existing labelled
// series costs: nothing, with one label or two in either order, for Add,
// Set, Observe and Value alike. A miss still creates the series a miss
// always created: sorted pairs, one series for both label orders.
func TestAllocBudgetRegistry(t *testing.T) {
	r := NewRegistry()
	r.Add("phase_seconds_total", 1, "phase", "map")
	r.Set("drift_ratio", 1, "job", "j1", "chain", "c")
	r.Observe("op_seconds", 1, "op", "AGG1", "job", "j1")
	hits := map[string]func(){
		"Add, one label":            func() { r.Add("phase_seconds_total", 1, "phase", "map") },
		"Set, two labels":           func() { r.Set("drift_ratio", 2, "job", "j1", "chain", "c") },
		"Set, two labels reversed":  func() { r.Set("drift_ratio", 2, "chain", "c", "job", "j1") },
		"Observe, two labels":       func() { r.Observe("op_seconds", 1, "op", "AGG1", "job", "j1") },
		"Observe, reversed":         func() { r.Observe("op_seconds", 1, "job", "j1", "op", "AGG1") },
		"Value, one label":          func() { sinkFloat = r.Value("phase_seconds_total", "phase", "map") },
		"Value, two labels":         func() { sinkFloat = r.Value("drift_ratio", "job", "j1", "chain", "c") },
		"Value, reversed, no match": func() { sinkFloat = r.Value("drift_ratio", "chain", "x", "job", "j1") },
	}
	for name, hit := range hits {
		if got := testing.AllocsPerRun(100, hit); got != 0 {
			t.Errorf("%s: %v allocations on an existing series, budget 0", name, got)
		}
	}

	want := []Metric{
		{Name: "drift_ratio", Labels: [][2]string{{"chain", "c"}, {"job", "j1"}}, Kind: GaugeKind, Value: 2},
		{Name: "phase_seconds_total", Labels: [][2]string{{"phase", "map"}}, Kind: CounterKind, Value: 1 + 100 + 1},
	}
	var got []Metric
	for _, m := range r.Snapshot() {
		if m.Kind != HistogramKind {
			got = append(got, m)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("series after the hits:\n got %+v\nwant %+v", got, want)
	}
	if snap := r.Snapshot(); len(snap) != 3 || snap[1].Hist.Count != 1+2*101 {
		t.Errorf("want one op_seconds histogram with %d observations, got %+v", 1+2*101, snap)
	}
}

var sinkFloat float64
