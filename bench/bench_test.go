package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"ysmart/internal/plan"
	"ysmart/internal/queries"
	"ysmart/internal/sqlparser"
	"ysmart/internal/translator"
)

// mainEnv makes the test binary behave as the bench binary itself, so the
// tests can run `bench run` as a separate process and signal it.
const mainEnv = "YSMART_BENCH_MAIN"

// TestMain lets the test binary stand in for the bench binary: the harness
// re-executes os.Executable() for its server child, which under `go test`
// is this binary.
func TestMain(m *testing.M) {
	switch {
	case os.Getenv(childEnv) != "":
		if err := serveMain(os.Args[2:], os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench serve:", err)
			os.Exit(1)
		}
		os.Exit(0)
	case os.Getenv(mainEnv) != "":
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, s := range workloads {
		a, b := buildPlan(s, 7, 2, 2), buildPlan(s, 7, 2, 2)
		if !reflect.DeepEqual(a.rounds, b.rounds) {
			t.Errorf("%s: same seed gave different op lists", s.name)
		}
		if c := buildPlan(s, 8, 2, 2); reflect.DeepEqual(a.rounds, c.rounds) {
			t.Errorf("%s: different seeds gave identical op lists", s.name)
		}
		da, err := s.encodedVersions(7)
		if err != nil {
			t.Fatal(err)
		}
		db, _ := s.encodedVersions(7)
		dc, _ := s.encodedVersions(8)
		if !reflect.DeepEqual(da, db) {
			t.Errorf("%s: same seed gave different datasets", s.name)
		}
		// plan_cold's tiny tables are a fixed fixture; only its statements
		// follow the seed.
		if reflect.DeepEqual(da, dc) != (s.scale == 0) {
			t.Errorf("%s: datasets of two seeds identical = %v", s.name, s.scale != 0)
		}
		if len(da) == 2 && reflect.DeepEqual(da[0]["lineitem"], da[1]["lineitem"]) {
			t.Errorf("%s: the two dataset versions are identical", s.name)
		}
	}
}

func TestColdStatementsParseAndNeverRepeat(t *testing.T) {
	s, err := findSpec("plan_cold")
	if err != nil {
		t.Fatal(err)
	}
	p := buildPlan(s, 3, 4, 3)
	seen := map[string]bool{}
	n := 0
	for _, round := range p.rounds {
		for _, o := range flatten(round) {
			if o.kind != opQuery {
				continue
			}
			n++
			stmt, err := sqlparser.Parse(o.sql)
			if err != nil {
				t.Fatalf("parse: %v\n%s", err, o.sql)
			}
			if _, err := plan.Build(stmt, queries.Catalog()); err != nil {
				t.Fatalf("plan: %v\n%s", err, o.sql)
			}
			key, err := translator.NormalizeSQL(o.sql)
			if err != nil {
				t.Fatal(err)
			}
			if seen[key] {
				t.Fatalf("statement repeats, so the plan cache would hit:\n%s", o.sql)
			}
			seen[key] = true
		}
	}
	if n <= s.cacheSize {
		t.Errorf("%d statements do not exceed the plan cache (%d entries)", n, s.cacheSize)
	}
}

func TestBestQuarterEstimator(t *testing.T) {
	// 12 rounds: a quiet level of 100 with three slightly different quiet
	// rounds, the rest disturbed by noise that only ever slows a round.
	qps := []float64{80, 99, 60, 100, 75, 101, 90, 70, 85, 65, 95, 88}
	if got := bestQuarter(qps, true); got != 100 {
		t.Errorf("bestQuarter(higher) = %v, want the mean of the three quietest rounds, 100", got)
	}
	lat := []float64{12, 10.5, 30, 10, 14, 9.5, 11, 19, 13, 25, 11.5, 12.5}
	if got := bestQuarter(lat, false); got != 10 {
		t.Errorf("bestQuarter(lower) = %v, want 10", got)
	}
	if got := bestQuarter([]float64{5, 3}, false); got != 3 {
		t.Errorf("bestQuarter of two rounds = %v, want the single best, 3", got)
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p50, p90 := percentile(sorted, 0.5), percentile(sorted, 0.9); p50 != 5 || p90 != 9 {
		t.Errorf("nearest-rank p50, p90 = %v, %v, want 5, 9", p50, p90)
	}
	if got := spread([]float64{90, 100, 110, 120}); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("spread = %v, want (110-90)/100", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesBenchmarkJSON is the drift gate: the committed
// BENCHMARK.json must be what the harness's registries render, and both
// must respect the driver's limits.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(committed, &want); err != nil {
		t.Fatal(err)
	}
	rendered, _ := json.Marshal(manifest())
	_ = json.Unmarshal(rendered, &got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json drifted from the harness; regenerate it with `go run ./bench manifest > BENCHMARK.json`")
	}

	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not a valid ledger name", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, s := range workloads {
		check("workload", s.name)
		if len(s.why) == 0 || len(s.why) > 200 || strings.Contains(s.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", s.name, len(s.why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check("end-to-end", m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is missing from the end-to-end metrics")
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(perLayer))
	}
	for _, m := range perLayer {
		check("per-layer", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// lastReport parses the JSON report that ends a run's standard output.
func lastReport(t *testing.T, stdout string) report {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not the report: %v\n%s", err, stdout)
	}
	return rep
}

var childLine = regexp.MustCompile(`child pid=(\d+) addr=(\S+)`)

// assertReaped fails unless the child process is gone and its port closed.
func assertReaped(t *testing.T, pid int, addr string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		alive := syscall.Kill(pid, 0) == nil
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
		}
		if !alive && err != nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("child pid %d alive=%v, port %s open=%v", pid, alive, addr, err == nil)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// checkReport fails unless the report that ends stdout is correct and holds
// exactly the metrics in defs, each finite and in its unit.
func checkReport(t *testing.T, what, stdout string, defs []metricDef) {
	t.Helper()
	rep := lastReport(t, stdout)
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, rep.Correct, rep.Attempted, rep.Failed)
	}
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", what, len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := rep.Metrics[d.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
			t.Errorf("%s: metric %s = %+v (present %v)", what, d.Name, v, ok)
		}
	}
}

// TestSmoke runs every workload end to end with 2 rounds at reduced op
// counts, with tracing off and on, and checks that every metric
// BENCHMARK.json names is emitted finite with no failed op and that the
// server child is reaped. One run goes through the command line, with the
// estimator the ledger is defined by.
func TestSmoke(t *testing.T) {
	// The traced run writes its span file under .bench_build/ in the working
	// directory; keep that out of the source tree.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, s := range workloads {
		for _, mode := range []struct {
			name string
			run  func(*spec, int64, runOptions) (*outcome, error)
			defs []metricDef
		}{{"trace=0", runEndToEnd, endToEnd}, {"trace=1", runTrace, perLayer}} {
			what := s.name + " " + mode.name
			var stdout, stderr bytes.Buffer
			out, err := mode.run(s, 5, runOptions{seconds: 1, rounds: 2, passes: 1, log: &stderr, procs: newProcs()})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if err := emit(&stdout, mode.defs, out); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			checkReport(t, what, stdout.String(), mode.defs)
			m := childLine.FindStringSubmatch(stderr.String())
			if m == nil {
				t.Fatalf("%s: no child line on stderr", what)
			}
			pid, _ := strconv.Atoi(m[1])
			assertReaped(t, pid, m[2])
		}
	}

	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"run", "--workload", "plan_cold", "--seed", "6", "--seconds", "1", "--trace", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("bench run: exit %d\n%s", code, stderr.String())
	}
	checkReport(t, "bench run plan_cold", stdout.String(), endToEnd)
}

// startBench runs `bench run` as its own process and returns once its
// server child is up.
func startBench(t *testing.T) (cmd *exec.Cmd, stdout *bytes.Buffer, pid int, addr string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd = exec.Command(exe, "run", "--workload", "plan_cold", "--seed", "5", "--seconds", "20")
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	stdout = &bytes.Buffer{}
	cmd.Stdout = stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if m := childLine.FindStringSubmatch(sc.Text()); m != nil {
			pid, _ = strconv.Atoi(m[1])
			addr = m[2]
			go func() { // keep draining so the process never blocks on stderr
				for sc.Scan() {
				}
			}()
			return cmd, stdout, pid, addr
		}
	}
	_ = cmd.Wait()
	t.Fatal("bench exited before its child came up")
	return nil, nil, 0, ""
}

// TestSmokeChildReapedOnFailureAndInterrupt kills the server child under a
// running benchmark (the run must fail without a report) and interrupts
// another (exit 130); both must leave no child and no open port.
func TestSmokeChildReapedOnFailureAndInterrupt(t *testing.T) {
	cmd, stdout, pid, addr := startBench(t)
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err == nil {
		t.Error("bench exited 0 although its server child was killed")
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("a failed run printed a report:\n%s", stdout.String())
	}
	assertReaped(t, pid, addr)

	cmd, _, pid, addr = startBench(t)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 130 {
		t.Errorf("interrupted bench: %v, want exit code 130", err)
	}
	assertReaped(t, pid, addr)
}
