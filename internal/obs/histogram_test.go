package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestLabelStringPrometheusEscaping(t *testing.T) {
	m := Metric{Name: "m", Labels: [][2]string{
		{"q", `say "hi"`},
		{"nl", "a\nb"},
		{"bs", `c:\tmp`},
		{"tab", "a\tb"},
		{"utf", "héllo→"},
	}}
	got := m.LabelString()
	want := `{q="say \"hi\"",nl="a\nb",bs="c:\\tmp",tab="a` + "\t" + `b",utf="héllo→"}`
	if got != want {
		t.Errorf("LabelString() = %s, want %s", got, want)
	}
	// The Prometheus exposition format escapes ONLY \, " and newline; Go's
	// %q escaping of tab or non-ASCII must never appear: the tab byte stays
	// literal and unicode stays raw UTF-8.
	if !strings.Contains(got, "a\tb") {
		t.Errorf("tab byte was escaped: %s", got)
	}
	for _, bad := range []string{`\u`, `\x`} {
		if strings.Contains(got, bad) {
			t.Errorf("LabelString() contains Go escape %q: %s", bad, got)
		}
	}
}

func TestValueIsNonMutating(t *testing.T) {
	r := NewRegistry()
	r.Add("present_total", 2)
	if v := r.Value("absent_total"); v != 0 {
		t.Errorf("Value(absent) = %v, want 0", v)
	}
	if v := r.Value("present_total", "extra", "label"); v != 0 {
		t.Errorf("Value(present, wrong labels) = %v, want 0", v)
	}
	// None of the misses may have created a metric.
	if snap := r.Snapshot(); len(snap) != 1 {
		t.Fatalf("reads mutated the registry: snapshot has %d metrics, want 1", len(snap))
	}
	if v := r.Value("present_total"); v != 2 {
		t.Errorf("Value(present) = %v, want 2", v)
	}
}

func TestWritePrometheusHistogramFamilies(t *testing.T) {
	r := NewRegistry()
	// Powers of two keep the _sum exactly representable.
	r.Observe("query_seconds", 0.0009765625, "query", "q17") // first bucket (<= 0.001)
	r.Observe("query_seconds", 0.0029296875, "query", "q17") // (0.002, 0.004]
	r.Observe("query_seconds", 0.0029296875, "query", "q17")
	var buf strings.Builder
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, line := range []string{
		"# TYPE query_seconds histogram",
		`query_seconds_bucket{query="q17",le="0.001"} 1`,
		`query_seconds_bucket{query="q17",le="0.002"} 1`,
		`query_seconds_bucket{query="q17",le="0.004"} 3`,
		`query_seconds_bucket{query="q17",le="+Inf"} 3`,
		`query_seconds_sum{query="q17"} 0.0068359375`,
		`query_seconds_count{query="q17"} 3`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("prometheus output missing %q:\n%s", line, out)
		}
	}
	// Empty trailing finite buckets are elided: nothing between the last
	// populated bound and +Inf.
	if strings.Contains(out, `le="0.008"`) {
		t.Errorf("output contains empty trailing bucket 0.008:\n%s", out)
	}
	// Cumulative counts must be non-decreasing.
	var last int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "query_seconds_bucket") {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < last {
			t.Errorf("bucket counts not cumulative at %q", line)
		}
		last = v
	}
}

func TestRegistryConcurrentRecorders(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Observe("conc_seconds", float64(i%10), "worker", fmt.Sprint(g%2))
				r.Add("conc_total", 1)
				_ = r.Value("conc_total")
				_ = r.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	if v := r.Value("conc_total"); v != 8*500 {
		t.Errorf("conc_total = %v, want %v", v, 8*500)
	}
	var count uint64
	for _, m := range r.Snapshot() {
		if m.Name == "conc_seconds" {
			count += m.Hist.Count
		}
	}
	if count != 8*500 {
		t.Errorf("histogram count = %d, want %d", count, 8*500)
	}
}
