package experiments

import "fmt"

// BenchRow is one machine-readable measurement of the bench harness: a
// query run by one system in one figure's configuration. The -json output
// of ysmart-bench is a flat list of these rows.
type BenchRow struct {
	Figure       string  `json:"figure"`
	Query        string  `json:"query"`
	System       string  `json:"system"`
	Workers      int     `json:"workers,omitempty"`
	Compress     bool    `json:"compress,omitempty"`
	Jobs         int     `json:"jobs"`
	Seconds      float64 `json:"seconds"`
	ScanBytes    int64   `json:"scan_bytes"`
	ShuffleBytes int64   `json:"shuffle_bytes"`
	// Fault-injection fields, set only by the robustness figure.
	FailureRate float64 `json:"failure_rate,omitempty"`
	Retries     int     `json:"retries,omitempty"`
	Recomputed  int     `json:"recomputed,omitempty"`
	Speculative int     `json:"speculative,omitempty"`
	ResultOK    bool    `json:"result_ok,omitempty"`
	// Cross-query reuse fields, set only by the reuse figure's warm rows:
	// jobs the materialized-output store let the warm replay skip, and the
	// artifact bytes read instead of recomputing them.
	JobsSkipped int   `json:"jobs_skipped,omitempty"`
	BytesSaved  int64 `json:"bytes_saved,omitempty"`
}

// benchRow flattens a Run into one figure's row.
func benchRow(figure string, r Run) BenchRow {
	return BenchRow{
		Figure: figure, Query: r.Query, System: r.System,
		Jobs: len(r.Jobs), Seconds: r.Total,
		ScanBytes: r.ScanBytes, ShuffleBytes: r.ShuffleBytes,
		Retries: r.Retries, Recomputed: r.Recomputed, Speculative: r.Speculative,
	}
}

// BenchRows flattens Fig. 2(b) for -json output.
func (r *Fig2bResult) BenchRows() []BenchRow {
	out := make([]BenchRow, 0, len(r.Runs))
	for _, run := range r.Runs {
		out = append(out, benchRow("2b", run))
	}
	return out
}

// BenchRows flattens Fig. 9 for -json output.
func (r *Fig9Result) BenchRows() []BenchRow {
	return []BenchRow{
		benchRow("9", r.OneToOne),
		benchRow("9", r.ICTC),
		benchRow("9", r.YSmart),
		benchRow("9", r.Hand),
	}
}

// BenchRows flattens Fig. 10 for -json output. The DBMS baseline has no job
// breakdown or byte counters; its row carries only the total.
func (r *Fig10Result) BenchRows() []BenchRow {
	var out []BenchRow
	for _, row := range r.Rows {
		out = append(out,
			benchRow("10", row.YSmart),
			benchRow("10", row.Hive),
			benchRow("10", row.Pig),
			BenchRow{Figure: "10", Query: row.Query, System: "pgsql", Seconds: row.PgSQL})
	}
	return out
}

// BenchRows flattens Fig. 11 for -json output.
func (r *Fig11Result) BenchRows() []BenchRow {
	var out []BenchRow
	for _, c := range r.Cells {
		for _, run := range []Run{c.YSmartRun, c.HiveRun} {
			row := benchRow("11", run)
			row.Workers = c.Workers
			row.Compress = c.Compress
			out = append(out, row)
		}
	}
	for _, run := range []Run{r.QCSA.YSmart, r.QCSA.Hive, r.QCSA.Pig} {
		row := benchRow("11d", run)
		row.Workers = 10
		out = append(out, row)
	}
	return out
}

// BenchRows flattens Fig. 12 for -json output.
func (r *Fig12Result) BenchRows() []BenchRow {
	var out []BenchRow
	for _, run := range append(r.YSmart[:], r.Hive[:]...) {
		out = append(out, benchRow("12", run))
	}
	return out
}

// BenchRows flattens Fig. 13 for -json output: one row per instance, not the
// averaged bars.
func (r *Fig13Result) BenchRows() []BenchRow {
	var out []BenchRow
	for qi := range r.Query {
		for i := 0; i < 3; i++ {
			out = append(out,
				benchRow("13", r.YSmartRuns[qi][i]),
				benchRow("13", r.HiveRuns[qi][i]))
		}
	}
	return out
}

// BenchRows flattens the ablation table for -json output: the ablated system and
// its full-system baseline each get a row.
func (r *AblationsResult) BenchRows() []BenchRow {
	var out []BenchRow
	for _, row := range r.Rows {
		out = append(out,
			benchRow("ablations", row.Run),
			benchRow("ablations", row.BaseRun))
	}
	return out
}

// BenchRows flattens the scaling sweep for -json output.
func (r *ScalingResult) BenchRows() []BenchRow {
	var out []BenchRow
	for _, p := range r.Points {
		for _, run := range []Run{p.YSmartRun, p.HiveRun} {
			row := benchRow(fmt.Sprintf("scaling-%d", p.Workers), run)
			row.Workers = p.Workers
			out = append(out, row)
		}
	}
	return out
}
