package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"ysmart/internal/experiments"
)

func TestSingleFigure(t *testing.T) {
	if err := run([]string{"-fig", "2b"}); err != nil {
		t.Fatalf("fig 2b: %v", err)
	}
}

func TestUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "nope"}); err == nil {
		t.Error("unknown figure should error")
	}
}

// TestListenFlag runs one figure with the progress plane up; the server
// binds an ephemeral port and is torn down when run returns.
func TestListenFlag(t *testing.T) {
	if err := run([]string{"-fig", "2b", "-listen", "127.0.0.1:0"}); err != nil {
		t.Fatalf("fig 2b with -listen: %v", err)
	}
	if err := run([]string{"-fig", "2b", "-listen", "256.0.0.1:-1"}); err == nil {
		t.Error("bad listen address should error")
	}
}

// captureStdout runs f with os.Stdout redirected to a pipe and returns what
// it printed and its error.
func captureStdout(t *testing.T, f func() error) ([]byte, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	done := make(chan []byte)
	go func() {
		var buf []byte
		chunk := make([]byte, 4096)
		for {
			n, err := r.Read(chunk)
			buf = append(buf, chunk[:n]...)
			if err != nil {
				break
			}
		}
		done <- buf
	}()
	ferr := f()
	w.Close()
	out := <-done
	os.Stdout = orig
	return out, ferr
}

func TestJSONOutput(t *testing.T) {
	out, err := captureStdout(t, func() error { return run([]string{"-fig", "9", "-json"}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var rows []experiments.BenchRow
	if err := json.Unmarshal(out, &rows); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out)
	}
	if len(rows) != 4 {
		t.Fatalf("fig 9 rows = %d, want 4 (one-op-one-job, ic+tc, ysmart, hand-coded)", len(rows))
	}
	for _, r := range rows {
		if r.Figure != "9" || r.Query == "" || r.System == "" {
			t.Errorf("row missing identity fields: %+v", r)
		}
		if r.Jobs <= 0 || r.Seconds <= 0 || r.ScanBytes <= 0 {
			t.Errorf("row missing measurements: %+v", r)
		}
	}
	// The figure's point: YSmart's merged plan beats the one-to-one baseline.
	bySystem := map[string]experiments.BenchRow{}
	for _, r := range rows {
		bySystem[r.System] = r
	}
	if ys, oto := bySystem["ysmart"], bySystem["one-op-one-job"]; ys.Seconds >= oto.Seconds || ys.Jobs >= oto.Jobs {
		t.Errorf("ysmart (%d jobs, %.0fs) should beat one-op-one-job (%d jobs, %.0fs)",
			ys.Jobs, ys.Seconds, oto.Jobs, oto.Seconds)
	}
}

// TestFailedFigureKeepsTheOthers: outside the module source -fig manimal
// cannot find the jobs it analyzes. The run still prints every other
// figure's rows as one JSON array, and its error names manimal.
func TestFailedFigureKeepsTheOthers(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
	out, err := captureStdout(t, func() error { return run([]string{"-fig", "all", "-json"}) })
	if err == nil || !strings.Contains(err.Error(), "fig manimal: ") {
		t.Fatalf("run: %v, want an error naming fig manimal", err)
	}
	var rows []experiments.BenchRow
	if err := json.Unmarshal(out, &rows); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out)
	}
	for _, fig := range []string{"2b", "9", "10", "11", "12", "13", "ablations", "scaling", "robustness", "reuse", "manimal"} {
		n := 0
		for _, r := range rows {
			if strings.HasPrefix(r.Figure, fig) {
				n++
			}
		}
		if want := fig != "manimal"; (n > 0) != want {
			t.Errorf("fig %s: %d rows, want rows: %v", fig, n, want)
		}
	}
}
