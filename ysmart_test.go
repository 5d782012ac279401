package ysmart_test

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ysmart"
	"ysmart/internal/translator"
)

// TestPublicAPIQuickstart drives the whole public surface the way the
// README's quickstart does.
func TestPublicAPIQuickstart(t *testing.T) {
	cat := ysmart.WorkloadCatalog()
	q, err := ysmart.Parse(ysmart.WorkloadQueries()["Q-AGG"], cat)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.ExplainPlan(), "Aggregate") {
		t.Errorf("plan missing aggregate:\n%s", q.ExplainPlan())
	}
	tr, err := q.Translate(ysmart.YSmart, ysmart.Options{QueryName: "api"})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumJobs() != 1 {
		t.Errorf("jobs = %d, want 1", tr.NumJobs())
	}

	rt, err := ysmart.NewRuntime(ysmart.SmallCluster())
	if err != nil {
		t.Fatal(err)
	}
	clicks, err := ysmart.GenerateClicks(ysmart.DefaultClicks())
	if err != nil {
		t.Fatal(err)
	}
	rt.LoadTables(clicks)
	res, err := rt.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Errorf("result rows = %d, want 5 categories", len(res.Rows))
	}
	if res.Stats.TotalTime() <= 0 {
		t.Error("stats missing")
	}

	// The MapReduce result must match the oracle.
	oracle, err := ysmart.OracleResult(q, cat, clicks)
	if err != nil {
		t.Fatal(err)
	}
	if len(oracle) != len(res.Rows) {
		t.Errorf("oracle rows = %d, mr rows = %d", len(oracle), len(res.Rows))
	}
}

// TestCorrelationExplain covers the analysis entry point on the paper's
// flagship example.
func TestCorrelationExplain(t *testing.T) {
	q, err := ysmart.Parse(ysmart.WorkloadQueries()["Q17"], ysmart.WorkloadCatalog())
	if err != nil {
		t.Fatal(err)
	}
	report := q.ExplainCorrelations()
	for _, want := range []string{"AGG1", "JOIN1", "TC", "JFC"} {
		if !strings.Contains(report, want) {
			t.Errorf("correlation report missing %q:\n%s", want, report)
		}
	}
}

// TestTranslateReusesAnalysis: Query.Translate compiles the analysis Parse
// made instead of analyzing the plan again. Every workload query translates,
// in every mode and in two mode orders from one Query, to what a fresh
// analysis of its plan gives: the same job description, DOT and artifact
// fingerprints.
func TestTranslateReusesAnalysis(t *testing.T) {
	modes := []ysmart.Mode{ysmart.OneToOne, ysmart.PigLike, ysmart.ICTCOnly, ysmart.YSmart}
	for name, sql := range ysmart.WorkloadQueries() {
		q, err := ysmart.Parse(sql, ysmart.WorkloadCatalog())
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			for k := range modes {
				mode := modes[k]
				if round == 1 {
					mode = modes[len(modes)-1-k]
				}
				opts := ysmart.Options{QueryName: "once"}
				got, err := q.Translate(mode, opts)
				if err != nil {
					t.Fatalf("%s/%v: %v", name, mode, err)
				}
				want, err := translator.Translate(q.Plan(), mode, opts)
				if err != nil {
					t.Fatalf("%s/%v: %v", name, mode, err)
				}
				if got.Describe() != want.Describe() || got.DOT() != want.DOT() {
					t.Errorf("%s/%v round %d: jobs differ from a fresh analysis:\n%s\nwant\n%s", name, mode, round, got.Describe(), want.Describe())
				}
				if !reflect.DeepEqual(got.Artifacts(), want.Artifacts()) {
					t.Errorf("%s/%v round %d: artifacts %v, want %v", name, mode, round, got.Artifacts(), want.Artifacts())
				}
			}
		}
	}
}

// TestModeComparison checks the headline claim end-to-end through the
// public API: YSmart uses fewer jobs and less simulated time than the
// one-to-one baseline on Q17.
func TestModeComparison(t *testing.T) {
	cat := ysmart.WorkloadCatalog()
	q, err := ysmart.Parse(ysmart.WorkloadQueries()["Q17"], cat)
	if err != nil {
		t.Fatal(err)
	}
	tpch, err := ysmart.GenerateTPCH(ysmart.DefaultTPCH())
	if err != nil {
		t.Fatal(err)
	}

	run := func(mode ysmart.Mode, name string) *ysmart.Result {
		tr, err := q.Translate(mode, ysmart.Options{QueryName: name})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := ysmart.NewRuntime(ysmart.SmallCluster())
		if err != nil {
			t.Fatal(err)
		}
		rt.LoadTables(tpch)
		res, err := rt.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	ys := run(ysmart.YSmart, "cmp-ys")
	oto := run(ysmart.OneToOne, "cmp-oto")
	if len(ys.Stats.Jobs) >= len(oto.Stats.Jobs) {
		t.Errorf("ysmart jobs %d, one-to-one %d", len(ys.Stats.Jobs), len(oto.Stats.Jobs))
	}
	if ys.Stats.TotalTime() >= oto.Stats.TotalTime() {
		t.Errorf("ysmart %.0fs not faster than one-to-one %.0fs",
			ys.Stats.TotalTime(), oto.Stats.TotalTime())
	}
	if len(ys.Rows) != 1 || len(oto.Rows) != 1 {
		t.Fatalf("Q17 returns one row; got %d and %d", len(ys.Rows), len(oto.Rows))
	}
}

// TestNilTracerIsOff pins "a nil sink is off" at the public API: a nil
// *Collector as the translation tracer and as the run tracer, and a nil
// *Registry as the run registry, behave exactly like passing none.
func TestNilTracerIsOff(t *testing.T) {
	q, err := ysmart.Parse(ysmart.WorkloadQueries()["Q21"], ysmart.WorkloadCatalog())
	if err != nil {
		t.Fatal(err)
	}
	tables, err := ysmart.WorkloadTables()
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts ysmart.Options, runOpts ...ysmart.RunOption) *ysmart.Result {
		t.Helper()
		tr, err := q.Translate(ysmart.YSmart, opts)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := ysmart.NewRuntime(ysmart.SmallCluster())
		if err != nil {
			t.Fatal(err)
		}
		rt.SetWorkers(1)
		rt.LoadTables(tables)
		res, err := rt.Run(tr, runOpts...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	plain := run(ysmart.Options{QueryName: "q21"})
	var nilCollector *ysmart.Collector
	got := run(ysmart.Options{QueryName: "q21", Tracer: nilCollector},
		ysmart.WithTracer(nilCollector), ysmart.WithMetrics(nil))
	if !reflect.DeepEqual(plain.Rows, got.Rows) {
		t.Errorf("nil sinks changed the rows:\nplain %v\ngot   %v", plain.Rows, got.Rows)
	}
	if !reflect.DeepEqual(plain.Stats, got.Stats) {
		t.Errorf("nil sinks changed ChainStats:\nplain %+v\ngot   %+v", plain.Stats, got.Stats)
	}
}

// TestEventLogReplays: the structured event log (-log) replays byte for
// byte, like everything else the simulator prints. Each workload query is
// parsed, translated and run several times in this one process, each time
// on a fresh runtime, and every run must log exactly the bytes of the
// first. Map iteration order changes from run to run inside a process, so
// an unsorted map range that reaches a logged field (a partition key's
// components in a plan.merge event, say) fails here.
func TestEventLogReplays(t *testing.T) {
	const runs = 6
	tables, err := ysmart.WorkloadTables()
	if err != nil {
		t.Fatal(err)
	}
	queries := ysmart.WorkloadQueries()
	names := make([]string, 0, len(queries))
	for name := range queries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var first []byte
		for i := 0; i < runs; i++ {
			var buf bytes.Buffer
			logger := ysmart.NewLogger(&buf, ysmart.LogDebug)
			q, err := ysmart.Parse(queries[name], ysmart.WorkloadCatalog())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			tr, err := q.Translate(ysmart.YSmart, ysmart.Options{QueryName: name, Logger: logger})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rt, err := ysmart.NewRuntime(ysmart.SmallCluster())
			if err != nil {
				t.Fatal(err)
			}
			rt.LoadTables(tables)
			if _, err := rt.Run(tr, ysmart.WithLogger(logger)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if i == 0 {
				if buf.Len() == 0 {
					t.Fatalf("%s: the run logged nothing", name)
				}
				first = buf.Bytes()
				continue
			}
			if !bytes.Equal(buf.Bytes(), first) {
				t.Errorf("%s: run %d logged other bytes than run 1:\n%s", name, i+1, firstLineDiff(first, buf.Bytes()))
				break
			}
		}
	}
}

// firstLineDiff renders the first line at which two logs differ.
func firstLineDiff(a, b []byte) string {
	al, bl := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "run 1: " + al[i] + "\nother: " + bl[i]
		}
	}
	return "one log is a prefix of the other"
}
