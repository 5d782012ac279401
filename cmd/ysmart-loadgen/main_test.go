package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"time"

	"ysmart"
	"ysmart/internal/experiments"
	"ysmart/internal/server"
)

// TestLoadgenEndToEnd replays a short stream against the embedded server
// with the admin plane up and asserts the bench rows carry non-zero
// quantiles from the histogram, the run went through the server's plan
// cache, and both selfchecks (oracle, live endpoints) pass.
func TestLoadgenEndToEnd(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "rows.json")
	logPath := filepath.Join(dir, "events.jsonl")
	var out strings.Builder
	reg := ysmart.NewRegistry()
	err := run([]string{
		"-queries", "Q17,Q21",
		"-clients", "2",
		"-requests", "6",
		"-listen", "127.0.0.1:0",
		"-selfcheck",
		"-json", jsonPath,
		"-log", logPath,
	}, &out, reg)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if hits := reg.Value("ysmart_server_plancache_hits_total"); hits <= 0 {
		t.Errorf("plan cache hits = %v, want > 0: the run did not go through the server", hits)
	}
	if !strings.Contains(out.String(), "selfcheck: server rows match the DBMS oracle") {
		t.Errorf("oracle selfcheck line missing without -server:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "selfcheck: all admin endpoints healthy") {
		t.Errorf("selfcheck line missing from output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "p99_ms") {
		t.Errorf("latency table missing from output:\n%s", out.String())
	}

	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("read bench rows: %v", err)
	}
	var rows []experiments.BenchRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("bench rows not valid JSON: %v", err)
	}
	if len(rows) != 3 { // Q17, Q21, all
		t.Fatalf("got %d rows, want 3: %s", len(rows), data)
	}
	var sawAll bool
	for _, r := range rows {
		if r.Figure != "loadgen" {
			t.Errorf("row %s: figure = %q, want loadgen", r.Query, r.Figure)
		}
		if r.P99 <= 0 || r.P50 <= 0 || r.QPS <= 0 {
			t.Errorf("row %s: p50/p99/qps must be positive, got %+v", r.Query, r)
		}
		if r.P50 > r.P99 {
			t.Errorf("row %s: p50 %v > p99 %v", r.Query, r.P50, r.P99)
		}
		if r.Query == "all" {
			sawAll = true
			if r.Requests != 6 {
				t.Errorf("aggregate row requests = %d, want 6", r.Requests)
			}
		}
	}
	if !sawAll {
		t.Errorf("no aggregate row in %s", data)
	}

	// The structured event stream must be one valid JSON object per line
	// with job lifecycle events from the engine.
	events, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatalf("read event log: %v", err)
	}
	var sawJobDone bool
	for _, line := range strings.Split(strings.TrimRight(string(events), "\n"), "\n") {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("event line not valid JSON: %v\n%s", err, line)
		}
		if obj["event"] == "job.done" {
			sawJobDone = true
		}
	}
	if !sawJobDone {
		t.Errorf("no job.done event in log:\n%s", events)
	}
}

// TestLoadgenFlagErrors covers flag validation paths.
func TestLoadgenFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-queries", "Q99"},              // unknown query
		{"-clients", "0"},                // invalid client count
		{"-requests", "0"},               // invalid request count
		{"-mode", "nope"},                // unknown mode
		{"-cluster", "nope"},             // unknown cluster
		{"-log", "-", "-log-level", "x"}, // unknown level
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out, ysmart.NewRegistry()); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestLoadgenWireMode boots a real server, drives it over the wire protocol
// and checks the bench rows plus the oracle selfcheck.
func TestLoadgenWireMode(t *testing.T) {
	tpch, err := ysmart.GenerateTPCH(ysmart.DefaultTPCH())
	if err != nil {
		t.Fatal(err)
	}
	clicks, err := ysmart.GenerateClicks(ysmart.DefaultClicks())
	if err != nil {
		t.Fatal(err)
	}
	tables := make(map[string][]ysmart.Row, len(tpch)+len(clicks))
	for n, rows := range tpch {
		tables[n] = rows
	}
	for n, rows := range clicks {
		tables[n] = rows
	}
	srv, err := server.New(server.Config{
		Catalog:     ysmart.WorkloadCatalog(),
		Cluster:     func() *ysmart.Cluster { return ysmart.SmallCluster() },
		MaxInflight: 2,
		MaxQueued:   32,
		CacheSize:   16,
	}, server.EncodeTables(tables))
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer srv.Shutdown(10 * time.Second)

	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "rows.json")
	var out strings.Builder
	err = run([]string{
		"-server", addr,
		"-queries", "Q-AGG,Q-CSA",
		"-clients", "2",
		"-requests", "6",
		"-selfcheck",
		"-json", jsonPath,
	}, &out, ysmart.NewRegistry())
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "selfcheck: server rows match the DBMS oracle") {
		t.Errorf("oracle selfcheck line missing:\n%s", out.String())
	}

	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("read bench rows: %v", err)
	}
	var rows []experiments.BenchRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("bench rows not valid JSON: %v", err)
	}
	if len(rows) != 3 { // Q-AGG, Q-CSA, all
		t.Fatalf("got %d rows, want 3: %s", len(rows), data)
	}
	for _, r := range rows {
		if r.System != "server" {
			t.Errorf("row %s: system = %q, want server", r.Query, r.System)
		}
		if r.P50 <= 0 || r.P99 <= 0 || r.QPS <= 0 {
			t.Errorf("row %s: p50/p99/qps must be positive: %+v", r.Query, r)
		}
	}

	// The run plus the selfcheck replay hit the shared plan cache.
	_, hits, misses, _ := srv.Cache().Stats()
	if misses != 2 {
		t.Errorf("cache misses = %v, want 2 (one per distinct query)", misses)
	}
	if hits < 6 {
		t.Errorf("cache hits = %v, want >= 6", hits)
	}
}

// TestLoadgenWireModeDialError checks a dead server address fails fast.
func TestLoadgenWireModeDialError(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-server", "127.0.0.1:1", "-requests", "2"}, &out, ysmart.NewRegistry())
	if err == nil {
		t.Fatal("run against a dead address succeeded")
	}
}
