package mapreduce

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ysmart/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the fault schedule golden from current scheduler output")

// faultScenario is one plan of the golden sweep, run under several seeds
// with speculation on and off.
type faultScenario struct {
	name    string
	plan    FaultPlan
	mapOnly bool // run one map-only job instead of the three-job chain
}

// faultScenarios covers every branch of the scheduler on testFaultCluster:
// task failures up to and at the attempt cap, stragglers and the backups
// they spawn (a task's first ten attempts draw nearly equal straggle
// rolls, so a backup wins only from attempt 10 on, hence the race plan's
// cap), and node deaths in the first job's map window (13.6 s,
// completed output recomputed) and in its fault-free shuffle window
// ((19.5000486 s, 19.5000558 s], unfetched output recomputed).
func faultScenarios() []faultScenario {
	return []faultScenario{
		{name: "fail", plan: FaultPlan{TaskFailureProb: 0.3}},
		{name: "fail-cap2", plan: FaultPlan{TaskFailureProb: 0.6, MaxAttempts: 2}},
		{name: "straggle", plan: FaultPlan{StragglerProb: 0.3, StragglerFactor: 6}},
		{name: "race", plan: FaultPlan{TaskFailureProb: 0.4, StragglerProb: 0.3, StragglerFactor: 3e6, MaxAttempts: 10}},
		{name: "mixed", plan: FaultPlan{TaskFailureProb: 0.25, StragglerProb: 0.2, StragglerFactor: 5}},
		{name: "map-death", plan: FaultPlan{StragglerProb: 0.2,
			NodeFailures: []NodeFailure{{Node: 0, At: 13.6}}}},
		{name: "shuffle-death", plan: FaultPlan{
			NodeFailures: []NodeFailure{{Node: 1, At: 19.5000522}}}},
		{name: "deaths", plan: FaultPlan{TaskFailureProb: 0.2, StragglerProb: 0.2, MaxAttempts: 2,
			NodeFailures: []NodeFailure{{Node: 2, At: 13.6}, {Node: 1, At: 19.5000522}, {Node: 3, At: 33}}}},
		{name: "map-only", mapOnly: true, plan: FaultPlan{TaskFailureProb: 0.3, StragglerProb: 0.3,
			NodeFailures: []NodeFailure{{Node: 0, At: 13}}}},
	}
}

// faultScheduleLine runs one scenario and renders its golden line: chain
// recovery counters, per-job phase times, and a SHA-256 prefix over the
// JobStats (attempt log included), the debug event log, the Chrome trace
// and the Prometheus dump.
func faultScheduleLine(t *testing.T, sc faultScenario, seed int64, spec bool) (string, []byte) {
	t.Helper()
	c := testFaultCluster()
	plan := sc.plan
	plan.Seed = seed
	c.Faults = &plan
	c.Speculation = Speculation{Enabled: spec}
	dfs := NewDFS()
	dfs.Write("in", faultTestLines())
	e, err := NewEngine(dfs, c)
	if err != nil {
		t.Fatal(err)
	}
	col, reg := obs.NewCollector(), obs.NewRegistry()
	var log bytes.Buffer
	e.Instrument(col, reg)
	e.SetLogger(obs.NewLogger(&log, obs.LevelDebug))
	jobs := chainJobs()
	if sc.mapOnly {
		jobs = []*Job{{Name: "filter", Output: "out", Inputs: []Input{{Path: "in",
			Mapper: MapperFunc(func(line string, emit Emit) error {
				if strings.Contains(line, "alpha") {
					emit("", line)
				}
				return nil
			})}}}}
	}
	stats, err := e.RunChain(jobs)
	if err != nil {
		t.Fatal(err)
	}

	h := sha256.New()
	js, err := json.Marshal(stats.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(js)
	h.Write(log.Bytes())
	h.Write(obs.ChromeTrace(col.Events()))
	if err := obs.WritePrometheus(h, reg); err != nil {
		t.Fatal(err)
	}

	var mapRetries, redRetries, recomputed, specs, wins, deaths int
	var times []string
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	for _, s := range stats.Jobs {
		mapRetries += s.MapTaskRetries
		redRetries += s.ReduceTaskRetries
		recomputed += s.RecomputedMapTasks
		specs += s.SpeculativeTasks
		wins += s.SpeculativeWins
		deaths += s.NodeFailures
		times = append(times, g(s.MapTime)+"/"+g(s.ShuffleTime)+"/"+g(s.ReduceTime))
	}
	return fmt.Sprintf("%s seed=%d spec=%t retries=%d/%d recomputed=%d backups=%d/%d deaths=%d times=%s %x",
		sc.name, seed, spec, mapRetries, redRetries, recomputed, specs, wins, deaths,
		strings.Join(times, ","), h.Sum(nil)[:8]), log.Bytes()
}

// TestFaultScheduleGolden pins the event-level fault schedule: every
// attempt's slot, outcome and times, the recovery counters read off them,
// and what the log, trace and metrics emitters render from them, across a
// sweep of seeds, speculation on and off, and node deaths in every window.
// A diff here means the scheduler's observable behaviour changed —
// regenerate with -update only deliberately.
func TestFaultScheduleGolden(t *testing.T) {
	var lines []string
	var logs []byte
	for _, sc := range faultScenarios() {
		for seed := int64(1); seed <= 4; seed++ {
			for _, spec := range []bool{false, true} {
				line, log := faultScheduleLine(t, sc, seed, spec)
				lines = append(lines, line)
				logs = append(logs, log...)
			}
		}
	}
	// The sweep must reach both recompute paths it claims to pin.
	for _, reason := range []string{"map output lost to node death", "unfetched map output lost during shuffle"} {
		if !bytes.Contains(logs, []byte(reason)) {
			t.Errorf("no run in the sweep logged map.recompute %q", reason)
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "fault_schedule.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	want := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	for i := 0; i < len(lines) && i < len(want); i++ {
		if lines[i] != want[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i, lines[i], want[i])
		}
	}
	if len(lines) != len(want) {
		t.Errorf("%d schedule lines, want %d", len(lines), len(want))
	}
}
