package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs run() with stdout/stderr redirected to pipes and returns
// the exit code plus both streams.
func capture(t *testing.T, args []string) (code int, stdout, stderr string) {
	t.Helper()
	outR, outW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	errR, errW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	code = run(args, outW, errW)
	outW.Close()
	errW.Close()
	var ob, eb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := outR.Read(buf)
		ob.Write(buf[:n])
		if err != nil {
			break
		}
	}
	for {
		n, err := errR.Read(buf)
		eb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return code, ob.String(), eb.String()
}

func TestListAnalyzers(t *testing.T) {
	code, out, _ := capture(t, []string{"-list"})
	if code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got, want := strings.Join(names, " "), "determinism sharecheck concreduce"; got != want {
		t.Errorf("-list names = %q, want exactly %q:\n%s", got, want, out)
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	code, _, errOut := capture(t, []string{"-check", "nope"})
	if code != 2 {
		t.Fatalf("unknown -check exit = %d, want 2", code)
	}
	if !strings.Contains(errOut, "unknown analyzer") {
		t.Errorf("stderr missing explanation: %s", errOut)
	}
}

// TestCorpusExitsNonZero runs the CLI against a golden corpus directory;
// it must report diagnostics with file:line positions and exit 1.
func TestCorpusExitsNonZero(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "lint", "testdata", "src", "determinism")
	code, out, errOut := capture(t, []string{dir})
	if code != 1 {
		t.Fatalf("corpus exit = %d, want 1 (stderr: %s)", code, errOut)
	}
	if !strings.Contains(out, "determinism.go:") || !strings.Contains(out, "[determinism]") {
		t.Errorf("diagnostics missing file:line or check tag:\n%s", out)
	}
}

// TestJSONOutput: -json must emit a machine-readable array with one
// object per finding and the same exit code as the plain run.
func TestJSONOutput(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "lint", "testdata", "src", "determinism")
	code, out, errOut := capture(t, []string{"-json", dir})
	if code != 1 {
		t.Fatalf("-json corpus exit = %d, want 1 (stderr: %s)", code, errOut)
	}
	var diags []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Check   string `json:"check"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out)
	}
	if len(diags) == 0 {
		t.Fatal("-json produced an empty array for a corpus full of findings")
	}
	for _, d := range diags {
		if d.File == "" || d.Line == 0 || d.Check == "" || d.Message == "" {
			t.Errorf("incomplete JSON diagnostic: %+v", d)
		}
	}
}

// TestJSONCleanRun: a clean run under -json is an empty array, not
// empty output — downstream jq never sees invalid JSON.
func TestJSONCleanRun(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "lint", "testdata", "src", "kitchen")
	code, out, errOut := capture(t, []string{"-json", dir})
	if code != 0 {
		t.Fatalf("-json kitchen exit = %d, want 0 (stderr: %s, stdout: %s)", code, errOut, out)
	}
	if strings.TrimSpace(out) != "[]" {
		t.Errorf("clean -json run = %q, want []", out)
	}
}

// TestDriverErrorExitsTwo: a pattern naming a directory with no Go files
// is a driver error, not a clean run.
func TestDriverErrorExitsTwo(t *testing.T) {
	code, _, errOut := capture(t, []string{t.TempDir()})
	if code != 2 {
		t.Fatalf("driver error exit = %d, want 2", code)
	}
	if errOut == "" {
		t.Error("driver error produced no stderr")
	}
}

// TestOptimizeReport: -optimize over the naive user-job corpus reports
// the provable MANIMAL rewrites (with discharge paths) and exits 0.
func TestOptimizeReport(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "userjobs")
	code, out, errOut := capture(t, []string{"-optimize", dir})
	if code != 0 {
		t.Fatalf("-optimize exit = %d, want 0 (stderr: %s)", code, errOut)
	}
	for _, want := range []string{
		"early-filter", "reducer-pushdown", "projection-trim",
		"shippedRecently", "o_totalprice > 30000", "refused",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-optimize output missing %q:\n%s", want, out)
		}
	}
}

// TestOptimizeJSON: -optimize -json is machine-readable per-job reports.
func TestOptimizeJSON(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "userjobs")
	code, out, errOut := capture(t, []string{"-optimize", "-json", dir})
	if code != 0 {
		t.Fatalf("-optimize -json exit = %d, want 0 (stderr: %s)", code, errOut)
	}
	var rep struct {
		Jobs []struct {
			Name     string `json:"name"`
			Rewrites []struct {
				Kind string `json:"kind"`
			} `json:"rewrites"`
		} `json:"Jobs"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-optimize -json is not valid JSON: %v\n%s", err, out)
	}
	if len(rep.Jobs) != 3 {
		t.Fatalf("JSON report has %d jobs, want 3", len(rep.Jobs))
	}
}

// TestOptimizeDriverError: an unloadable pattern under -optimize is a
// driver error.
func TestOptimizeDriverError(t *testing.T) {
	code, _, errOut := capture(t, []string{"-optimize", t.TempDir()})
	if code != 2 {
		t.Fatalf("-optimize driver error exit = %d, want 2", code)
	}
	if errOut == "" {
		t.Error("driver error produced no stderr")
	}
}
