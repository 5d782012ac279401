// Command ysmart-bench regenerates the paper's evaluation figures on the
// simulated cluster models and prints them as text tables next to the
// paper's reference numbers.
//
// Usage:
//
//	ysmart-bench            # all figures
//	ysmart-bench -fig 9     # just Fig. 9
//	ysmart-bench -fig 9 -json   # machine-readable rows instead of tables
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"ysmart/internal/experiments"
	"ysmart/internal/obs"
	"ysmart/internal/obs/httpserve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ysmart-bench:", err)
		os.Exit(1)
	}
}

// figResult is what every figure harness returns: a human-readable table
// and flat machine-readable rows.
type figResult interface {
	Format() string
	BenchRows() []experiments.BenchRow
}

func run(args []string) error {
	fs := flag.NewFlagSet("ysmart-bench", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: 2b, 9, 10, 11, 12, 13, ablations, scaling, robustness, manimal, reuse, all")
	asJSON := fs.Bool("json", false, "emit one JSON array of per-run rows instead of text tables")
	faultSeed := fs.Int64("fault-seed", 1, "seed of the robustness figure's deterministic fault scenarios")
	workers := fs.Int("workers", 0, "goroutines executing engine tasks (0 = NumCPU); figures are identical at any count")
	listen := fs.String("listen", "", "serve bench progress on this address while figures run (/metrics histogram of per-figure wall seconds, /jobs live figure status)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	w, err := experiments.NewWorkload()
	if err != nil {
		return err
	}
	w.Workers = *workers

	type figure struct {
		name string
		run  func() (figResult, error)
	}
	figures := []figure{
		{"2b", func() (figResult, error) { return experiments.Fig2b(w) }},
		{"9", func() (figResult, error) { return experiments.Fig9(w) }},
		{"10", func() (figResult, error) { return experiments.Fig10(w) }},
		{"11", func() (figResult, error) { return experiments.Fig11(w) }},
		{"12", func() (figResult, error) { return experiments.Fig12(w) }},
		{"13", func() (figResult, error) { return experiments.Fig13(w) }},
		{"ablations", func() (figResult, error) { return experiments.Ablations(w) }},
		{"scaling", func() (figResult, error) { return experiments.ScalingSweep(w) }},
		{"robustness", func() (figResult, error) { return experiments.Robustness(w, *faultSeed) }},
		{"manimal", func() (figResult, error) { return experiments.Manimal(w) }},
		{"reuse", func() (figResult, error) { return experiments.Reuse(w) }},
	}

	// Bench progress plane: the figure harnesses build engines internally,
	// so -listen serves the harness's own registry — a wall-clock histogram
	// per completed figure plus a live status table on /jobs.
	var progressMu sync.Mutex
	progress := map[string]string{}
	var reg *obs.Registry
	if *listen != "" {
		reg = obs.NewRegistry()
		srv := httpserve.New(reg, nil, func() any {
			progressMu.Lock()
			defer progressMu.Unlock()
			out := make(map[string]string, len(progress))
			for k, v := range progress {
				out[k] = v
			}
			return out
		})
		addr, err := srv.Start(*listen)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "bench progress listening on http://%s\n", addr)
	}

	matched := false
	var rows []experiments.BenchRow
	for _, f := range figures {
		if *fig != "all" && *fig != f.name {
			continue
		}
		matched = true
		progressMu.Lock()
		progress[f.name] = "running"
		progressMu.Unlock()
		figStart := time.Now()
		result, err := f.run()
		if err != nil {
			return fmt.Errorf("fig %s: %w", f.name, err)
		}
		reg.Observe("ysmart_bench_figure_seconds", time.Since(figStart).Seconds(), "figure", f.name)
		reg.Add("ysmart_bench_figures_total", 1)
		progressMu.Lock()
		progress[f.name] = "done"
		progressMu.Unlock()
		if *asJSON {
			rows = append(rows, result.BenchRows()...)
			continue
		}
		fmt.Println(result.Format())
		rows = append(rows, result.BenchRows()...)
	}
	if !matched {
		return fmt.Errorf("unknown figure %q (have 2b, 9, 10, 11, 12, 13, ablations, scaling, robustness, manimal, reuse, all)", *fig)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rows)
	}

	var scanned, shuffled int64
	for _, r := range rows {
		scanned += r.ScanBytes
		shuffled += r.ShuffleBytes
	}
	fmt.Printf("bench totals: %d runs, %s scanned, %s shuffled (raw counters)\n",
		len(rows), obs.FormatBytes(scanned), obs.FormatBytes(shuffled))
	return nil
}
