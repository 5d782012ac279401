package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestNilSinksAreOff pins the rule every producer relies on: a nil
// *Collector or *Registry is a valid receiver whose writes do nothing and
// whose reads report zero.
func TestNilSinksAreOff(t *testing.T) {
	var c *Collector
	var r *Registry
	cases := []struct {
		name string
		call func() any
		want any
	}{
		{"Collector.Enabled", func() any { return c.Enabled() }, false},
		{"Collector.Emit", func() any { c.Emit(SpanEvent("job", "j", "job:j", 0, 1)); return nil }, nil},
		{"Collector.Events", func() any { return len(c.Events()) }, 0},
		{"Collector.Len", func() any { return c.Len() }, 0},
		{"Collector.Reset", func() any { c.Reset(); return nil }, nil},
		{"Registry.Add", func() any { r.Add("n_total", 1, "k", "v"); return nil }, nil},
		{"Registry.Set", func() any { r.Set("g", 2); return nil }, nil},
		{"Registry.Observe", func() any { r.Observe("h", 3); return nil }, nil},
		{"Registry.Value", func() any { return r.Value("n_total", "k", "v") }, 0.0},
		{"Registry.Quantile", func() any { v, ok := r.Quantile("h", 0.5); return [2]any{v, ok} }, [2]any{0.0, false}},
		{"Registry.Snapshot", func() any { return len(r.Snapshot()) }, 0},
		{"WritePrometheus", func() any {
			var buf bytes.Buffer
			if err := WritePrometheus(&buf, r); err != nil {
				return err
			}
			return buf.String()
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.call(); got != tc.want {
				t.Errorf("got %v, want %v", got, tc.want)
			}
		})
	}
}

func TestCollectorRecordsInOrder(t *testing.T) {
	c := NewCollector()
	if !c.Enabled() {
		t.Error("collector must report enabled")
	}
	c.Emit(SpanEvent("job", "j1", "job:j1", 0, 10, F("k", int64(1))))
	c.Emit(InstantEvent("dfs", "dfs.read", "dfs", 3, F("path", "tables/x")))
	ev := c.Events()
	if len(ev) != 2 || c.Len() != 2 {
		t.Fatalf("events = %d", len(ev))
	}
	if ev[0].Name != "j1" || ev[0].Kind != Span || ev[0].End() != 10 {
		t.Errorf("span event wrong: %+v", ev[0])
	}
	if ev[1].Kind != Instant || ev[1].Arg("path") != "tables/x" {
		t.Errorf("instant event wrong: %+v", ev[1])
	}
	if ev[0].Arg("missing") != nil {
		t.Error("missing arg should be nil")
	}
	c.Reset()
	if c.Len() != 0 {
		t.Error("reset did not clear events")
	}
}

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	r.Add("jobs_total", 1)
	r.Add("jobs_total", 2)
	r.Add("rows_total", 5, "op", "AGG1")
	r.Add("rows_total", 7, "op", "JOIN2")
	r.Set("scale", 1.5)
	r.Set("scale", 2.5)

	if got := r.Value("jobs_total"); got != 3 {
		t.Errorf("jobs_total = %v, want 3", got)
	}
	if got := r.Value("rows_total", "op", "AGG1"); got != 5 {
		t.Errorf("rows_total{AGG1} = %v", got)
	}
	if got := r.Value("scale"); got != 2.5 {
		t.Errorf("gauge = %v, want last write 2.5", got)
	}
	if got := r.Value("absent"); got != 0 {
		t.Errorf("absent metric = %v, want 0", got)
	}

	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d metrics, want 4", len(snap))
	}
	// Sorted by name then labels.
	wantOrder := []string{"jobs_total", "rows_total{op=\"AGG1\"}", "rows_total{op=\"JOIN2\"}", "scale"}
	for i, m := range snap {
		if m.Name+m.LabelString() != wantOrder[i] {
			t.Errorf("snapshot[%d] = %s%s, want %s", i, m.Name, m.LabelString(), wantOrder[i])
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Add("ysmart_engine_jobs_total", 4)
	r.Add("ysmart_cmf_op_input_rows_total", 10, "op", "AGG1")
	r.Set("ysmart_engine_data_scale", 12.5)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE ysmart_engine_jobs_total counter",
		"ysmart_engine_jobs_total 4",
		`ysmart_cmf_op_input_rows_total{op="AGG1"} 10`,
		"# TYPE ysmart_engine_data_scale gauge",
		"ysmart_engine_data_scale 12.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus dump missing %q:\n%s", want, out)
		}
	}
}

func TestChromeTraceValidAndDeterministic(t *testing.T) {
	build := func() []byte {
		c := NewCollector()
		c.Emit(SpanEvent("job", "j1", "job:j1", 0, 10, F("map_input_bytes", int64(1024))))
		c.Emit(SpanEvent("phase", "map", "job:j1", 0, 6))
		c.Emit(InstantEvent("dfs", "dfs.read", "dfs", 0, F("path", "tables/t"), F("bytes", int64(77))))
		return ChromeTrace(c.Events())
	}
	b1, b2 := build(), build()
	if !bytes.Equal(b1, b2) {
		t.Error("ChromeTrace output is not deterministic")
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b1, &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	var spans, instants, meta int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "X":
			spans++
			if e["dur"] == nil || e["tid"] == nil {
				t.Errorf("span missing dur/tid: %v", e)
			}
		case "i":
			instants++
		case "M":
			meta++
		}
	}
	if spans != 2 || instants != 1 || meta == 0 {
		t.Errorf("spans=%d instants=%d meta=%d", spans, instants, meta)
	}
}

func TestTimelineRendersPhases(t *testing.T) {
	c := NewCollector()
	c.Emit(SpanEvent("gap", "gap", "job:j2", 100, 20))
	c.Emit(SpanEvent("job", "j1", "job:j1", 0, 100, F("map_input_bytes", int64(2<<20)), F("shuffle_bytes", int64(1<<20))))
	c.Emit(SpanEvent("phase", "startup", "job:j1", 0, 12))
	c.Emit(SpanEvent("phase", "map", "job:j1", 12, 50))
	c.Emit(SpanEvent("phase", "shuffle", "job:j1", 62, 18))
	c.Emit(SpanEvent("phase", "reduce", "job:j1", 80, 20))
	c.Emit(SpanEvent("job", "j2", "job:j2", 120, 60))
	c.Emit(SpanEvent("phase", "map", "job:j2", 120, 60))
	out := Timeline(c.Events(), 40)
	for _, want := range []string{"j1", "j2", "M", "S", "R", "~", "2.00MB", "1.00MB", "legend"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	if Timeline(nil, 40) == "" {
		t.Error("empty timeline should still render a message")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512B",
		2048:    "2.00KB",
		3 << 20: "3.00MB",
		5 << 30: "5.00GB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}
