package main

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"
)

// repeatCmd is `bench repeat`: run every workload --runs times per set
// (one seed per run, the same seeds in every set) and compare the sets'
// medians metric by metric against the bounds of BENCHMARK.json. Two sets
// of the same code must agree within the benchmark's own bounds, or the
// benchmark cannot tell a regression from noise.
func repeatCmd(args []string, stdout, stderr io.Writer, ps *procs) error {
	fs := flag.NewFlagSet("bench repeat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sets := fs.Int("sets", 2, "sets of runs to compare")
	runs := fs.Int("runs", 5, "runs per set and workload (seeds 1..runs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sets < 2 || *runs < 1 {
		return fmt.Errorf("--sets must be at least 2 and --runs at least 1")
	}
	opt := defaultOptions()
	opt.log, opt.procs = io.Discard, ps

	var over []string
	for _, s := range workloads {
		// medians[set][metric]
		medians := make([]map[string]float64, *sets)
		spreads := make([]map[string]float64, *sets)
		for set := 0; set < *sets; set++ {
			values := map[string][]float64{}
			for run := 0; run < *runs; run++ {
				out, err := runEndToEnd(s, int64(run+1), opt)
				if err != nil {
					return fmt.Errorf("%s set %d run %d: %w", s.name, set+1, run+1, err)
				}
				if out.failed > 0 {
					return fmt.Errorf("%s set %d run %d: %d op(s) failed", s.name, set+1, run+1, out.failed)
				}
				for _, m := range endToEnd {
					values[m.Name] = append(values[m.Name], out.res[m.Name].Value)
				}
				fmt.Fprintf(stderr, "bench repeat: %s set %d run %d done\n", s.name, set+1, run+1)
			}
			medians[set], spreads[set] = map[string]float64{}, map[string]float64{}
			for name, v := range values {
				sort.Float64s(v)
				medians[set][name] = percentile(v, 0.5)
				spreads[set][name] = spread(v)
			}
		}
		fmt.Fprintf(stdout, "== %s: %d sets x %d runs ==\n", s.name, *sets, *runs)
		fmt.Fprintf(stdout, "%-22s %14s %14s %9s %9s %9s\n", "metric", "median[1]", "median[last]", "gap", "bound", "spread[1]")
		for _, m := range endToEnd {
			first, last := medians[0][m.Name], medians[*sets-1][m.Name]
			gap := (last - first) / first // how far the later set is worse
			if m.Better == "higher" {
				gap = -gap
			}
			verdict := ""
			if gap > m.Bound {
				verdict = "  OVER BOUND"
				over = append(over, s.name+"/"+m.Name)
			}
			fmt.Fprintf(stdout, "%-22s %14.6f %14.6f %8.2f%% %8.2f%% %8.2f%%%s\n",
				m.Name, first, last, gap*100, m.Bound*100, spreads[0][m.Name]*100, verdict)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("same-code sets disagree beyond the bound on: %s", strings.Join(over, ", "))
	}
	return nil
}
