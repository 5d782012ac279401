package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestTimelineEmptyEvents(t *testing.T) {
	for _, events := range [][]Event{nil, {}} {
		got := Timeline(events, 80)
		if !strings.Contains(got, "no job spans recorded") {
			t.Errorf("Timeline(%v) = %q, want no-spans message", events, got)
		}
	}
	// Instants alone carry no job spans either.
	got := Timeline([]Event{InstantEvent("dfs", "write", "dfs", 1)}, 80)
	if !strings.Contains(got, "no job spans recorded") {
		t.Errorf("instants-only timeline = %q, want no-spans message", got)
	}
}

func TestTimelineZeroDurationSpans(t *testing.T) {
	events := []Event{
		SpanEvent("job", "j1", "job:j1", 0, 0), // zero-duration job
		SpanEvent("phase", "map", "job:j1", 0, 0),
	}
	got := Timeline(events, 40)
	if !strings.Contains(got, "1 job(s)") {
		t.Errorf("timeline lost the zero-duration job:\n%s", got)
	}
	// A zero-duration phase still paints at least one column.
	if !strings.Contains(got, "M") {
		t.Errorf("zero-duration map phase not painted:\n%s", got)
	}
}

func TestTimelineNarrowWidthClamped(t *testing.T) {
	events := []Event{SpanEvent("job", "j1", "job:j1", 0, 10)}
	got := Timeline(events, 1) // clamps to 20 columns
	for _, line := range strings.Split(got, "\n") {
		if strings.HasPrefix(line, "j1") && len(line) < 20 {
			t.Errorf("row narrower than clamp: %q", line)
		}
	}
}

func TestChromeTraceEmptyAndZeroDuration(t *testing.T) {
	for _, events := range [][]Event{nil, {}} {
		out := ChromeTrace(events)
		var parsed struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(out, &parsed); err != nil {
			t.Fatalf("ChromeTrace(%v) invalid JSON: %v\n%s", events, err, out)
		}
		if len(parsed.TraceEvents) != 1 { // only the process_name metadata
			t.Errorf("empty trace has %d events, want 1 metadata record", len(parsed.TraceEvents))
		}
	}

	out := ChromeTrace([]Event{
		SpanEvent("job", "j", "job:j", 1.5, 0, F("k", "v")), // zero duration
		InstantEvent("cmf", "dispatch", "job:j", 1.5),
	})
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	var sawZeroDur bool
	for _, e := range parsed.TraceEvents {
		if e["ph"] == "X" && e["dur"] == 0.0 {
			sawZeroDur = true
		}
	}
	if !sawZeroDur {
		t.Errorf("zero-duration span missing from trace:\n%s", out)
	}
}
