// Benchmarks regenerating the paper's evaluation: one benchmark per figure
// (the paper's evaluation section is entirely figures; it has no numbered
// tables). Each BenchmarkFigN measures one full regeneration of that
// figure's experiment on the simulated clusters, and reports the headline
// metric the paper quotes as a custom unit so shapes can be compared at a
// glance:
//
//	go test -bench=Fig -benchmem
//
// Micro-benchmarks for the core pipeline stages (parse, plan, correlation
// analysis, translation, engine execution) follow the figure benchmarks.
package ysmart_test

import (
	"sort"
	"sync"
	"testing"

	"ysmart"
	"ysmart/internal/experiments"
)

var (
	benchOnce sync.Once
	benchW    *experiments.Workload
	benchErr  error
)

func benchWorkload(b *testing.B) *experiments.Workload {
	b.Helper()
	benchOnce.Do(func() { benchW, benchErr = experiments.NewWorkload() })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchW
}

// BenchmarkFig2b regenerates Fig. 2(b): Hive vs hand-coded MapReduce on
// Q-AGG and Q-CSA (paper: hand-coded ~3x faster on Q-CSA, equal on Q-AGG).
func BenchmarkFig2b(b *testing.B) {
	w := benchWorkload(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2b(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Runs[2].Total/r.Runs[3].Total, "csa-hand-speedup")
	}
}

// BenchmarkFig9 regenerates Fig. 9: the Q21 correlation ablation
// (paper: 1140s / 773s / 561s / 479s).
func BenchmarkFig9(b *testing.B) {
	w := benchWorkload(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.OneToOne.Total/r.YSmart.Total, "ysmart-speedup")
		b.ReportMetric(r.OneToOne.Total/r.ICTC.Total, "ictc-speedup")
	}
}

// BenchmarkFig10 regenerates Fig. 10: the four-system small-cluster
// comparison (paper: YSmart 1.9-2.7x over Hive).
func BenchmarkFig10(b *testing.B) {
	w := benchWorkload(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(w)
		if err != nil {
			b.Fatal(err)
		}
		var worst = 99.0
		for _, row := range r.Rows {
			if s := row.Hive.Total / row.YSmart.Total; s < worst {
				worst = s
			}
		}
		b.ReportMetric(worst, "min-speedup")
	}
}

// BenchmarkFig11 regenerates Fig. 11: EC2 scaling and compression
// (paper: near-linear scaling; compression degrades everything).
func BenchmarkFig11(b *testing.B) {
	w := benchWorkload(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.QCSA.Hive.Total/r.QCSA.YSmart.Total, "csa-speedup")
	}
}

// BenchmarkFig12 regenerates Fig. 12: six concurrent Q17 instances on the
// busy production-cluster model (paper: 230-310% speedup).
func BenchmarkFig12(b *testing.B) {
	w := benchWorkload(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(w)
		if err != nil {
			b.Fatal(err)
		}
		var ys, hive float64
		for j := 0; j < 3; j++ {
			ys += r.YSmart[j].Total
			hive += r.Hive[j].Total
		}
		b.ReportMetric(hive/ys, "avg-speedup")
	}
}

// BenchmarkFig13 regenerates Fig. 13: Q18 and Q21 averages on the busy
// cluster (paper: 298% and 336%).
func BenchmarkFig13(b *testing.B) {
	w := benchWorkload(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedup[0], "q18-speedup")
		b.ReportMetric(r.Speedup[1], "q21-speedup")
	}
}

// ----- Core pipeline micro-benchmarks ---------------------------------------

// BenchmarkParseQCSA measures parsing the most deeply nested workload query.
func BenchmarkParseQCSA(b *testing.B) {
	sql := ysmart.WorkloadQueries()["Q-CSA"]
	cat := ysmart.WorkloadCatalog()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ysmart.Parse(sql, cat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslateQ21 measures the full analyze+merge+lower pipeline for
// the query with the most merging.
func BenchmarkTranslateQ21(b *testing.B) {
	q, err := ysmart.Parse(ysmart.WorkloadQueries()["Q21"], ysmart.WorkloadCatalog())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := q.Translate(ysmart.YSmart, ysmart.Options{QueryName: "bench"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineQAGG measures end-to-end engine execution of the simple
// aggregation on the default click data.
func BenchmarkEngineQAGG(b *testing.B) {
	q, err := ysmart.Parse(ysmart.WorkloadQueries()["Q-AGG"], ysmart.WorkloadCatalog())
	if err != nil {
		b.Fatal(err)
	}
	tr, err := q.Translate(ysmart.YSmart, ysmart.Options{QueryName: "bench-qagg"})
	if err != nil {
		b.Fatal(err)
	}
	clicks, err := ysmart.GenerateClicks(ysmart.DefaultClicks())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := ysmart.NewRuntime(ysmart.SmallCluster())
		if err != nil {
			b.Fatal(err)
		}
		rt.LoadTables(clicks)
		if _, err := rt.Run(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadWarm measures the row data path the way a warm server
// session runs it: the seven workload queries, translated once in YSmart
// mode, run one after another on one Runtime over WorkloadTables with two
// workers. One op is the seven runs; with -memprofile or -cpuprofile it is
// the in-tree profile of the engine's map, shuffle and reduce.
func BenchmarkWorkloadWarm(b *testing.B) {
	tables, err := ysmart.WorkloadTables()
	if err != nil {
		b.Fatal(err)
	}
	rt, err := ysmart.NewRuntime(ysmart.SmallCluster())
	if err != nil {
		b.Fatal(err)
	}
	rt.LoadTables(tables)
	rt.SetWorkers(2)
	named := ysmart.WorkloadQueries()
	names := make([]string, 0, len(named))
	for name := range named {
		names = append(names, name)
	}
	sort.Strings(names)
	var trs []*ysmart.Translation
	for _, name := range names {
		q, err := ysmart.Parse(named[name], ysmart.WorkloadCatalog())
		if err != nil {
			b.Fatal(err)
		}
		tr, err := q.Translate(ysmart.YSmart, ysmart.Options{QueryName: name})
		if err != nil {
			b.Fatal(err)
		}
		trs = append(trs, tr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range trs {
			if _, err := rt.Run(tr); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkOracleQ21 measures the pipelined DBMS executor on the most
// complex query.
func BenchmarkOracleQ21(b *testing.B) {
	cat := ysmart.WorkloadCatalog()
	q, err := ysmart.Parse(ysmart.WorkloadQueries()["Q21"], cat)
	if err != nil {
		b.Fatal(err)
	}
	tpch, err := ysmart.GenerateTPCH(ysmart.DefaultTPCH())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ysmart.OracleResult(q, cat, tpch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations measures the design-choice ablation suite (DESIGN.md):
// shared scan off, combiner off, partition-key heuristic off.
func BenchmarkAblations(b *testing.B) {
	w := benchWorkload(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Ablations(w)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Time <= row.BaseTime {
				b.Fatalf("%s: ablation did not cost time", row.Name)
			}
		}
		b.ReportMetric(r.Rows[0].Time/r.Rows[0].BaseTime, "noshare-slowdown")
	}
}
