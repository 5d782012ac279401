// Command ysmart translates SQL queries into MapReduce job plans and
// optionally executes them on a simulated cluster.
//
// Usage:
//
//	ysmart -query Q17 -mode ysmart -explain
//	ysmart -sql "SELECT cid, count(*) FROM clicks GROUP BY cid" -run
//	ysmart -query Q21 -mode one-to-one -run -cluster ec2-11
//
// With -explain it prints the logical plan, the detected correlations
// (input, transit, job-flow) and the generated job plan. With -run it loads
// deterministic workload data, executes the jobs, and prints the result
// rows plus per-job simulated times.
//
// Observability flags:
//
//	ysmart -query Q21 -run -trace q21.json   # Chrome trace-event JSON (Perfetto)
//	ysmart -query Q21 -run -timeline         # ASCII Gantt of the simulated run
//	ysmart -query Q21 -run -metrics -        # Prometheus-style counter dump
//	ysmart -query Q21 -run -analyze          # job graph annotated with counters
//	ysmart -query Q21 -run -log -            # structured JSON event stream on stderr
//	ysmart -query Q21 -listen 127.0.0.1:8080 # admin HTTP plane: /metrics, /trace,
//	                                         # /jobs, /debug/pprof; blocks after the
//	                                         # run until interrupted
//
// Fault injection (deterministic, seeded; see mapreduce.FaultPlan):
//
//	ysmart -query Q21 -faults task=0.1 -timeline              # 10% task failures
//	ysmart -query Q21 -faults "straggler=0.2x6" -speculate    # stragglers + backups
//	ysmart -query Q21 -faults node=0@400 -fault-seed 7 -run   # node 0 dies at t=400s
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"ysmart"
	"ysmart/internal/obs/httpserve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ysmart:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ysmart", flag.ContinueOnError)
	var (
		queryName = fs.String("query", "", "workload query name (Q17, Q18, Q21, Q-CSA, Q-AGG)")
		sqlText   = fs.String("sql", "", "SQL text (alternative to -query)")
		modeName  = fs.String("mode", "ysmart", "translation mode: ysmart, one-to-one, pig-like, ic-tc-only")
		clusterN  = fs.String("cluster", "small", "cluster model: small, ec2-11, ec2-101, facebook")
		explain   = fs.Bool("explain", false, "print plan, correlations and job plan")
		manimal   = fs.Bool("manimal", false, "apply MANIMAL-style static rewrites (early scan filters) to the jobs and print what was applied or refused")
		dot       = fs.Bool("dot", false, "print the job graph in Graphviz dot syntax")
		dataDir   = fs.String("data", "", "load tables from <dir>/<table>.tsv (ysmart-datagen output) instead of generating")
		runIt     = fs.Bool("run", false, "execute on workload data and print results")
		maxRows   = fs.Int("max-rows", 20, "result rows to print")
		traceOut  = fs.String("trace", "", "write Chrome trace-event JSON to <file> (- for stdout); implies -run")
		timeline  = fs.Bool("timeline", false, "print an ASCII timeline of the simulated execution; implies -run")
		metricsTo = fs.String("metrics", "", "write Prometheus-style metrics to <file> (- for stdout); implies -run")
		analyze   = fs.Bool("analyze", false, "print the job graph annotated with post-run counters (explain -analyze); implies -run")
		faults    = fs.String("faults", "", `fault scenario, e.g. "task=0.1,straggler=0.05x6,node=2@500"; implies -run`)
		faultSeed = fs.Int64("fault-seed", 1, "seed of the deterministic fault scenario")
		speculate = fs.Bool("speculate", false, "launch backup attempts for straggling tasks; implies -run")
		workers   = fs.Int("workers", 0, "goroutines executing engine tasks (0 = NumCPU); results are identical at any count")
		reuseIt   = fs.Bool("reuse", false, "run the query twice through a cross-query reuse store (cold, then warm replay) and print what the warm run skipped; implies -run")
		listen    = fs.String("listen", "", "serve the admin HTTP plane (/metrics, /trace, /jobs, /debug/pprof) on this address; implies -run and blocks after the run until interrupted")
		logTo     = fs.String("log", "", "write the structured JSON event stream to <file> (- for stderr); implies -run")
		logLevel  = fs.String("log-level", "info", "minimum event level: debug, info, warn, error")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceOut != "" || *timeline || *metricsTo != "" || *analyze || *faults != "" || *speculate ||
		*listen != "" || *logTo != "" || *reuseIt {
		*runIt = true
	}

	sql := *sqlText
	if sql == "" {
		if *queryName == "" {
			return fmt.Errorf("provide -query <name> or -sql <text>")
		}
		named, ok := ysmart.WorkloadQueries()[*queryName]
		if !ok {
			return fmt.Errorf("unknown query %q (have: Q17, Q18, Q21, Q-CSA, Q-AGG)", *queryName)
		}
		sql = named
	}

	mode, err := ysmart.ParseMode(*modeName)
	if err != nil {
		return err
	}

	q, err := ysmart.Parse(sql, ysmart.WorkloadCatalog())
	if err != nil {
		return err
	}
	label := *queryName
	if label == "" {
		label = "adhoc"
	}

	// Instrumentation is created before translation so rule-application
	// events from the merging phase land in the same trace as execution.
	// The admin plane forces both a collector and a registry so /trace
	// and /metrics have data to serve.
	var collector *ysmart.Collector
	var registry *ysmart.Registry
	if *traceOut != "" || *timeline || *listen != "" {
		collector = ysmart.NewCollector()
	}
	if *metricsTo != "" || *listen != "" {
		registry = ysmart.NewRegistry()
	}
	logger, closeLog, err := ysmart.OpenLog(*logTo, *logLevel)
	if err != nil {
		return err
	}
	defer closeLog()
	opts := ysmart.Options{QueryName: strings.ToLower(label), Tracer: collector, Metrics: registry, Logger: logger}
	tr, err := q.Translate(mode, opts)
	if err != nil {
		return err
	}
	if *manimal {
		_, report := ysmart.ApplyManimal(tr)
		fmt.Println("== manimal ==")
		fmt.Print(report)
	}

	if *dot {
		fmt.Print(tr.DOT())
		if !*runIt {
			return nil
		}
	} else if *explain || !*runIt {
		fmt.Println("== logical plan ==")
		fmt.Print(q.ExplainPlan())
		fmt.Println("== correlations ==")
		fmt.Print(q.ExplainCorrelations())
		fmt.Println("== job plan ==")
		fmt.Print(tr.Describe())
	}

	if !*runIt {
		return nil
	}

	cluster, err := ysmart.ParseCluster(*clusterN)
	if err != nil {
		return err
	}
	if *faults != "" {
		plan, err := ysmart.ParseFaultSpec(*faults)
		if err != nil {
			return err
		}
		plan.Seed = *faultSeed
		cluster.Faults = plan
	}
	if *speculate {
		cluster.Speculation = ysmart.Speculation{Enabled: true}
	}
	rt, err := ysmart.NewRuntime(cluster)
	if err != nil {
		return err
	}
	if *workers > 0 {
		rt.SetWorkers(*workers)
	}
	if *dataDir != "" {
		if err := loadDataDir(rt, *dataDir); err != nil {
			return err
		}
	} else {
		tables, err := ysmart.WorkloadTables()
		if err != nil {
			return err
		}
		rt.LoadTables(tables)
	}

	// The admin plane comes up before the run so a watcher can scrape
	// /metrics while the query executes.
	var admin *httpserve.Server
	if *listen != "" {
		admin = httpserve.New(registry, collector, nil)
		addr, err := admin.Start(*listen)
		if err != nil {
			return err
		}
		defer admin.Close()
		lastAdminAddr = addr
		fmt.Printf("admin plane listening on http://%s\n", addr)
	}

	runOpts := []ysmart.RunOption{
		ysmart.WithTracer(collector), ysmart.WithMetrics(registry), ysmart.WithLogger(logger),
	}
	var store *ysmart.ReuseStore
	if *reuseIt {
		store = ysmart.NewReuseStore(0, registry)
		runOpts = append(runOpts, ysmart.WithReuse(store))
		cold, err := rt.Run(tr, runOpts...)
		if err != nil {
			return err
		}
		fmt.Println("== reuse (cold) ==")
		fmt.Println(cold.Reuse.Summary())
	}
	res, err := rt.Run(tr, runOpts...)
	if err != nil {
		return err
	}
	if *reuseIt {
		fmt.Println("== reuse (warm) ==")
		fmt.Println(res.Reuse.Summary())
	}
	if admin != nil {
		// Post-run, /jobs serves the executed chain's per-job stats.
		admin.SetJobs(func() any { return res.Stats.Jobs })
	}

	fmt.Println("== execution ==")
	fmt.Println(res.Stats.String())
	fmt.Printf("  scanned %s, shuffled %s\n",
		ysmart.FormatBytes(res.Stats.TotalMapInputBytes()),
		ysmart.FormatBytes(res.Stats.TotalShuffleBytes()))
	if res.Stats.TotalRetries()+res.Stats.TotalRecomputed()+res.Stats.TotalSpeculative() > 0 {
		fmt.Printf("  recovery: %d retries, %d recomputed map tasks, %d speculative backups\n",
			res.Stats.TotalRetries(), res.Stats.TotalRecomputed(), res.Stats.TotalSpeculative())
	}
	fmt.Printf("== result (%d rows, schema %s) ==\n", len(res.Rows), res.Schema)
	for i, row := range res.Rows {
		if i >= *maxRows {
			fmt.Printf("... %d more rows\n", len(res.Rows)-*maxRows)
			break
		}
		cells := make([]string, len(row))
		for c, v := range row {
			cells[c] = v.String()
		}
		fmt.Println(strings.Join(cells, "\t"))
	}

	if *timeline {
		fmt.Println("== timeline ==")
		fmt.Print(ysmart.RenderTimeline(collector.Events(), 100))
	}
	if *analyze {
		fmt.Println("== job graph (analyzed) ==")
		fmt.Print(tr.DOTAnalyzed(res.Stats))
	}
	if *traceOut != "" {
		if err := writeOutput(*traceOut, ysmart.ChromeTrace(collector.Events())); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if *metricsTo != "" {
		var buf strings.Builder
		if err := ysmart.WriteMetrics(&buf, registry); err != nil {
			return err
		}
		if err := writeOutput(*metricsTo, []byte(buf.String())); err != nil {
			return fmt.Errorf("write metrics: %w", err)
		}
	}
	if admin != nil {
		fmt.Println("serving admin plane; press Ctrl-C to exit")
		waitInterrupt()
	}
	return nil
}

// lastAdminAddr records the bound address of the most recent -listen
// server so tests (which stub waitInterrupt) can probe it while it serves.
var lastAdminAddr string

// waitInterrupt blocks until the process receives an interrupt. Tests
// replace it to return immediately.
var waitInterrupt = func() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	signal.Stop(ch)
}

// writeOutput writes data to a file, or stdout when path is "-".
func writeOutput(path string, data []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// loadDataDir loads every <table>.tsv under dir into the runtime.
func loadDataDir(rt *ysmart.Runtime, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	loaded := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".tsv") {
			continue
		}
		data, err := os.ReadFile(dir + "/" + e.Name())
		if err != nil {
			return err
		}
		lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
		if len(lines) == 1 && lines[0] == "" {
			lines = nil
		}
		rt.LoadTableLines(strings.TrimSuffix(e.Name(), ".tsv"), lines)
		loaded++
	}
	if loaded == 0 {
		return fmt.Errorf("no .tsv tables found in %s", dir)
	}
	return nil
}
