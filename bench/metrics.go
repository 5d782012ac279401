package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one ledger metric. The lists below are the harness's
// registry: BENCHMARK.json is rendered from them (`bench manifest`) and a
// unit test fails when the committed file drifts.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the metrics a client of internal/server sees, the same
// names on every workload. Bound is the share of the parent's median by
// which the metric may worsen before a change is a regression.
//
// Each bound is about three times the widest ten-seed spread (IQR over
// median) its metric showed on an ordinary quarter of an hour of the
// sandbox, and clears the worst one seen; README.md, "The estimator", has
// the table. For the timed metrics that spread is the host's: 3-8 % usually,
// 10-16 % in a bad quarter of an hour, the same on one seed as on ten. The
// allocation metrics repeat to six digits on one seed and within 0.9 % over
// ten (the lineitem count is pinned, see spec.tpch).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "ops/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"server_cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.03},
	{"allocs_per_op", "count", "lower", 0.03},
	{"live_heap_mb", "MB", "lower", 0.05},
}

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }

// spanLayers are the layers the traced run records a span around, in the
// order session.runQuery + PlanCache.build call them; each is reported as
// self time per op under "<layer>.us_per_op".
var spanLayers = []string{
	"translator.normalize",
	"sqlparser.parse",
	"plan.build",
	"correlation.analyze",
	"translator.translate",
	"optanalysis.apply",
	"server.admission.acquire",
	"translator.apply_reuse",
	"mapreduce.run_chain",
	"translator.read_result",
	"translator.reuse_record",
	"server.text_value",
	"server.connect",
}

// perLayer are the single-layer metrics of the traced run.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range spanLayers {
		out = append(out, lower(l+".us_per_op", "us"))
	}
	return append(out,
		lower("server.plancache.get_miss.us", "us"),
		lower("server.plancache.get_hit.us", "us"),
		lower("server.connect.us_p50", "us"),
		lower("server.wire_residual.us_per_op", "us"),
		lower("server.admission.wait_us_mean", "us"),
		// Stand-alone kernels over the workload's own tables.
		lower("exec.decode_row.ns_per_row", "ns"),
		lower("exec.encode_row.ns_per_row", "ns"),
		lower("exec.decode_row.allocs_per_row", "count"),
		lower("exec.encode_row.allocs_per_row", "count"),
		lower("mapreduce.dfs.write.ns_per_line", "ns"),
		lower("mapreduce.dfs.read.ns_per_line", "ns"),
		lower("datagen.lines.ns_per_row", "ns"),
		// Counts per op from the child's registry over the socket replay.
		lower("mapreduce.jobs_per_op", "count"),
		lower("mapreduce.map_input_records_per_op", "count"),
		lower("mapreduce.map_output_records_per_op", "count"),
		lower("mapreduce.shuffle_bytes_per_op", "B"),
		lower("mapreduce.reduce_groups_per_op", "count"),
		lower("mapreduce.reduce_output_bytes_per_op", "B"),
		lower("mapreduce.sim_s_per_op", "s"),
		lower("mapreduce.dfs.write_bytes_per_op", "B"),
		lower("mapreduce.dfs.read_bytes_per_op", "B"),
		lower("server.result_rows_per_op", "count"),
		higher("server.plancache.hit_ratio", "ratio"),
		lower("server.plancache.evictions_per_op", "count"),
		lower("server.plancache.retranslations_per_op", "count"),
		higher("reuse.hit_ratio", "ratio"),
		lower("reuse.records_per_op", "count"),
		lower("reuse.invalidations_per_op", "count"),
		lower("reuse.evictions_per_op", "count"),
		higher("reuse.bytes_saved_per_op", "B"),
		lower("reuse.store_mb", "MB"),
		higher("optanalysis.lines_filtered_per_op", "count"),
		lower("runtime.gc_cycles_per_op", "count"),
		lower("runtime.gc_pause_ms_per_op", "ms"),
		lower("harness.round_spread", "ratio"),
		lower("harness.client_cpu_ms_per_op", "ms"),
		higher("trace.coverage", "ratio"),
		lower("trace.overhead_pct", "%"),
	)
}()

// measured is one reported value; Samples is how many observations the
// estimate rests on (rounds kept x ops per round for timed metrics).
type measured struct {
	Value   float64
	Samples int
}

// results is a run's metrics by name.
type results map[string]measured

// manifest renders BENCHMARK.json from the registries.
func manifest() map[string]any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var ws []wl
	for _, s := range workloads {
		ws = append(ws, wl{s.name, s.why})
	}
	return map[string]any{
		"command":     []string{"bash", "bench/run.sh", "run"},
		"paths":       []string{"bench"},
		"run_seconds": defaultSeconds,
		"workloads":   ws,
		"end_to_end":  endToEnd,
		"per_layer":   perLayer, // Bound is zero there and omitted
	}
}

// report is the last line of `bench run`'s standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]reportValue `json:"metrics"`
}

type reportValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints every metric by name and unit, then the one-line JSON report
// holding exactly the metrics in defs.
func emit(w io.Writer, defs []metricDef, out *outcome) error {
	rep := report{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]reportValue{}}
	for _, d := range defs {
		m, ok := out.res[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		fmt.Fprintf(w, "%-44s %16.6f %-6s samples=%d\n", d.Name, m.Value, d.Unit, m.Samples)
		rep.Metrics[d.Name] = reportValue{m.Value, d.Unit}
	}
	fmt.Fprintf(w, "%-44s %16d\n%-44s %16d\n", "ops_attempted", out.attempted, "ops_failed", out.failed)
	for _, line := range out.extra {
		fmt.Fprintln(w, line)
	}
	return json.NewEncoder(w).Encode(rep)
}

// bestQuarter is the estimator of every timed end-to-end metric: the mean
// of the best quarter of the per-round values (the highest when
// higherBetter, else the lowest; at least one round). Neighbour noise on a
// shared host only ever adds time, so the quiet rounds are the ones closest
// to the program's own cost; the mean of three keeps a single lucky round
// from deciding the figure.
func bestQuarter(perRound []float64, higherBetter bool) float64 {
	v := append([]float64(nil), perRound...)
	sort.Float64s(v)
	k := len(v) / 4
	if k < 1 {
		k = 1
	}
	if higherBetter {
		v = v[len(v)-k:]
	} else {
		v = v[:k]
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// percentile is the nearest-rank p-quantile of a sorted sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// spread is the interquartile range of v as a share of its median.
func spread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	med := percentile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (percentile(s, 0.75) - percentile(s, 0.25)) / med
}
