package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"ysmart"
)

func TestParseMode(t *testing.T) {
	tests := []struct {
		in   string
		want ysmart.Mode
	}{
		{"ysmart", ysmart.YSmart},
		{"one-to-one", ysmart.OneToOne},
		{"hive", ysmart.OneToOne},
		{"pig-like", ysmart.PigLike},
		{"pig", ysmart.PigLike},
		{"ic-tc-only", ysmart.ICTCOnly},
		{"ictc", ysmart.ICTCOnly},
	}
	for _, tt := range tests {
		got, err := ysmart.ParseMode(tt.in)
		if err != nil || got != tt.want {
			t.Errorf("ParseMode(%q) = (%v, %v), want %v", tt.in, got, err, tt.want)
		}
	}
	if _, err := ysmart.ParseMode("nope"); err == nil {
		t.Error("unknown mode should error")
	}
}

func TestParseCluster(t *testing.T) {
	for _, name := range []string{"small", "ec2-11", "ec2-101", "facebook"} {
		c, err := ysmart.ParseCluster(name)
		if err != nil || c == nil {
			t.Errorf("ParseCluster(%q) = (%v, %v)", name, c, err)
		}
	}
	if _, err := ysmart.ParseCluster("nope"); err == nil {
		t.Error("unknown cluster should error")
	}
}

func TestRunExplainAllQueries(t *testing.T) {
	for name := range ysmart.WorkloadQueries() {
		for _, mode := range []string{"ysmart", "one-to-one", "ic-tc-only", "pig-like"} {
			if err := run([]string{"-query", name, "-mode", mode, "-explain"}); err != nil {
				t.Errorf("explain %s (%s): %v", name, mode, err)
			}
		}
	}
}

func TestRunExecutesQuery(t *testing.T) {
	if err := run([]string{"-query", "Q-AGG", "-run", "-max-rows", "3"}); err != nil {
		t.Fatalf("run Q-AGG: %v", err)
	}
	if err := run([]string{"-sql", "SELECT uid FROM clicks WHERE cid = 1", "-run"}); err != nil {
		t.Fatalf("run ad-hoc SQL: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	tests := [][]string{
		{},                              // neither -query nor -sql
		{"-query", "NOPE"},              // unknown query
		{"-query", "Q17", "-mode", "x"}, // unknown mode
		{"-query", "Q17", "-run", "-cluster", "x"}, // unknown cluster
		{"-sql", "NOT SQL"},                        // parse failure
	}
	for _, args := range tests {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunErrorMessagesHelpful(t *testing.T) {
	err := run([]string{"-query", "NOPE"})
	if err == nil || !strings.Contains(err.Error(), "Q-CSA") {
		t.Errorf("unknown-query error should list options: %v", err)
	}
}

func TestRunDOT(t *testing.T) {
	if err := run([]string{"-query", "Q21", "-dot"}); err != nil {
		t.Fatalf("dot: %v", err)
	}
}

func TestRunWithDataDir(t *testing.T) {
	// Generate a small data set to a temp dir through the public API, then
	// run a query against it via -data.
	dir := t.TempDir()
	clicks, err := ysmart.GenerateClicks(ysmart.ClickConfig{Users: 5, ClicksPerUser: 4, Categories: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, line := range ysmart.EncodeTable(clicks["clicks"]) {
		sb.WriteString(line + "\n")
	}
	if err := os.WriteFile(dir+"/clicks.tsv", []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-query", "Q-AGG", "-run", "-data", dir}); err != nil {
		t.Fatalf("run with -data: %v", err)
	}
	if err := run([]string{"-query", "Q-AGG", "-run", "-data", t.TempDir()}); err == nil {
		t.Error("empty data dir should error")
	}
}

// TestRunTraceOutput is the acceptance test for -trace: the file must be
// valid Chrome trace-event JSON with job spans enclosing phase spans
// enclosing wave spans, and two runs must produce identical bytes.
func TestRunTraceOutput(t *testing.T) {
	trace := func() []byte {
		path := t.TempDir() + "/trace.json"
		if err := run([]string{"-query", "Q21", "-run", "-trace", path}); err != nil {
			t.Fatalf("run -trace: %v", err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	data := trace()

	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}

	type span struct {
		name       string
		start, end float64
		tid        int
	}
	spans := map[string][]span{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans[ev.Cat] = append(spans[ev.Cat], span{ev.Name, ev.Ts, ev.Ts + ev.Dur, ev.Tid})
		}
	}
	if len(spans["job"]) == 0 || len(spans["phase"]) == 0 || len(spans["wave"]) == 0 {
		t.Fatalf("missing spans: %d job, %d phase, %d wave",
			len(spans["job"]), len(spans["phase"]), len(spans["wave"]))
	}
	// Containment with a microsecond of slack for the µs rounding in export.
	within := func(outer, inner span) bool {
		return outer.tid == inner.tid && outer.start <= inner.start+1 && outer.end+1 >= inner.end
	}
	enclosed := func(inner span, outers []span) bool {
		for _, o := range outers {
			if within(o, inner) {
				return true
			}
		}
		return false
	}
	for _, ph := range spans["phase"] {
		if !enclosed(ph, spans["job"]) {
			t.Errorf("phase %q [%f,%f] tid %d not inside any job span", ph.name, ph.start, ph.end, ph.tid)
		}
	}
	for _, wv := range spans["wave"] {
		if !enclosed(wv, spans["phase"]) {
			t.Errorf("wave %q [%f,%f] tid %d not inside any phase span", wv.name, wv.start, wv.end, wv.tid)
		}
	}

	if again := trace(); !bytes.Equal(data, again) {
		t.Error("two traced runs wrote different bytes")
	}
}

// TestRunFaultFlags exercises the fault-injection flags end to end: a
// scenario with task failures, stragglers and a node death must execute,
// render a timeline, and reject malformed specs.
func TestRunFaultFlags(t *testing.T) {
	args := []string{"-query", "Q-AGG", "-cluster", "ec2-11", "-faults", "task=0.3,straggler=0.2x6,node=0@13", "-fault-seed", "2", "-speculate", "-timeline"}
	if err := run(args); err != nil {
		t.Fatalf("fault run: %v", err)
	}
	// Killing the small cluster's only node must fail loudly, not hang or
	// silently drop work.
	if err := run([]string{"-query", "Q-AGG", "-faults", "node=0@13"}); err == nil ||
		!strings.Contains(err.Error(), "no surviving nodes") {
		t.Errorf("total cluster loss err = %v, want 'no surviving nodes'", err)
	}
	if err := run([]string{"-query", "Q-AGG", "-faults", "task=nope"}); err == nil {
		t.Error("malformed fault spec should error")
	}
	if err := run([]string{"-query", "Q-AGG", "-faults", "node=99@10"}); err == nil {
		t.Error("out-of-range node should fail cluster validation")
	}
}

// TestRunAdminPlaneAndLog brings up -listen on an ephemeral port, probes
// every admin endpoint while the server is live (from inside the stubbed
// interrupt wait), and checks the -log event stream is valid JSON carrying
// translator and engine lifecycle events.
func TestRunAdminPlaneAndLog(t *testing.T) {
	logPath := t.TempDir() + "/events.jsonl"
	origWait := waitInterrupt
	defer func() { waitInterrupt = origWait }()
	probeErr := make(chan error, 1)
	waitInterrupt = func() {
		probeErr <- func() error {
			base := "http://" + lastAdminAddr
			for _, path := range []string{"/metrics", "/trace", "/jobs", "/debug/pprof/"} {
				resp, err := http.Get(base + path)
				if err != nil {
					return err
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					return err
				}
				if resp.StatusCode != http.StatusOK {
					return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
				}
				switch path {
				case "/metrics":
					for _, want := range []string{
						"ysmart_job_map_seconds_bucket",
						"ysmart_chain_sim_seconds_sum",
						"ysmart_chain_sim_seconds_count",
					} {
						if !strings.Contains(string(body), want) {
							return fmt.Errorf("GET /metrics missing %s:\n%s", want, body)
						}
					}
				case "/jobs":
					var jobs []map[string]any
					if err := json.Unmarshal(body, &jobs); err != nil {
						return fmt.Errorf("GET /jobs not a JSON array: %v", err)
					}
					if len(jobs) == 0 {
						return fmt.Errorf("GET /jobs returned no job stats")
					}
				}
			}
			return nil
		}()
	}
	if err := run([]string{"-query", "Q21", "-listen", "127.0.0.1:0", "-log", logPath, "-max-rows", "1"}); err != nil {
		t.Fatalf("run -listen: %v", err)
	}
	if err := <-probeErr; err != nil {
		t.Fatalf("admin plane probe: %v", err)
	}

	events, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(string(events), "\n"), "\n") {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("event line not valid JSON: %v\n%s", err, line)
		}
		if ev, ok := obj["event"].(string); ok {
			seen[ev] = true
		}
	}
	for _, want := range []string{"plan.merge", "chain.start", "job.done", "chain.done"} {
		if !seen[want] {
			t.Errorf("event log missing %q events; saw %v", want, seen)
		}
	}

	if err := run([]string{"-query", "Q21", "-log", "-", "-log-level", "nope"}); err == nil {
		t.Error("unknown log level should error")
	}
}

// TestRunObservabilityFlags smoke-tests the remaining observability paths.
func TestRunObservabilityFlags(t *testing.T) {
	if err := run([]string{"-query", "Q-AGG", "-timeline", "-analyze"}); err != nil {
		t.Fatalf("timeline+analyze (implied -run): %v", err)
	}
	path := t.TempDir() + "/metrics.prom"
	if err := run([]string{"-query", "Q21", "-run", "-metrics", path}); err != nil {
		t.Fatalf("-metrics: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE ysmart_engine_jobs_total counter",
		"ysmart_engine_jobs_total",
		"ysmart_translator_rule_firings_total",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
}

// TestRunManimal: -manimal applies the scan rewrites, prints the
// applied/refused report, and the run still completes.
func TestRunManimal(t *testing.T) {
	sql := "SELECT l_shipmode, count(*) AS ship_count FROM lineitem WHERE l_shipdate >= 9300 GROUP BY l_shipmode"
	if err := run([]string{"-sql", sql, "-manimal", "-run", "-max-rows", "3"}); err != nil {
		t.Fatalf("run -manimal: %v", err)
	}
	// Report-only (no -run): the manimal section still prints with -explain.
	if err := run([]string{"-sql", sql, "-manimal", "-explain"}); err != nil {
		t.Fatalf("explain -manimal: %v", err)
	}
	// An unfiltered scan is refused, not silently skipped, and the run
	// still succeeds.
	if err := run([]string{"-query", "Q-AGG", "-manimal", "-run", "-max-rows", "3"}); err != nil {
		t.Fatalf("run -manimal on unfiltered scan: %v", err)
	}
}
