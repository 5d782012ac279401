// Command ysmart-loadgen replays a stream of workload queries at N
// concurrent clients and reports sustained QPS plus wall-clock latency
// quantiles (p50/p90/p99) read back from the shared observability
// registry's latency histograms.
//
// It has two modes. In-process (the default), each client owns a private
// Runtime (the engine is single-chain) and latency is parse-free query
// execution (translate + simulated run). In wire mode (-server), each
// client dials a running ysmart-server over the PostgreSQL wire protocol
// and latency is true end-to-end: protocol round trip, plan cache,
// admission queueing, execution, result streaming.
//
//	ysmart-loadgen -clients 4 -requests 64                 # quick local run
//	ysmart-loadgen -requests 200 -listen 127.0.0.1:8080    # live /metrics, /jobs
//	ysmart-loadgen -requests 20 -json - -log events.jsonl  # bench rows + event log
//	ysmart-loadgen -requests 10 -listen 127.0.0.1:0 -selfcheck   # CI smoke
//	ysmart-loadgen -server 127.0.0.1:5433 -clients 8 -requests 200   # drive a server
//	ysmart-loadgen -server 127.0.0.1:5433 -requests 20 -selfcheck    # + oracle check
//
// In either mode all clients record into one obs.Registry, so the admin
// HTTP plane serves a live, merged view of the run. Wire-mode -selfcheck
// additionally replays every query through the single-node DBMS oracle and
// fails unless the server's rows match exactly.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ysmart"
	"ysmart/internal/experiments"
	"ysmart/internal/obs"
	"ysmart/internal/obs/httpserve"
	"ysmart/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ysmart-loadgen:", err)
		os.Exit(1)
	}
}

// clientStatus is one client's live row on the admin plane's /jobs endpoint.
type clientStatus struct {
	Client      int     `json:"client"`
	Query       string  `json:"query"`
	Done        int     `json:"done"`
	LastSeconds float64 `json:"last_seconds"`
	LastRows    int     `json:"last_rows,omitempty"` // wire mode: rows in the last result
}

// queryTotals accumulates per-query aggregates outside the registry (the
// registry holds the latency histograms; these are the bench-row counters).
type queryTotals struct {
	requests     int
	jobs         int
	simSeconds   float64
	scanBytes    int64
	shuffleBytes int64
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ysmart-loadgen", flag.ContinueOnError)
	var (
		queryList = fs.String("queries", "Q17,Q18,Q21,Q-CSA,Q-AGG", "comma-separated workload query names to replay round-robin")
		clients   = fs.Int("clients", 4, "concurrent clients, each with a private runtime (or wire connection with -server)")
		requests  = fs.Int("requests", 32, "total requests across all clients")
		serverTo  = fs.String("server", "", "drive a running ysmart-server at this host:port over the wire protocol instead of running in-process")
		modeName  = fs.String("mode", "ysmart", "translation mode: ysmart, one-to-one, pig-like, ic-tc-only (in-process only)")
		clusterN  = fs.String("cluster", "small", "cluster model: small, ec2-11, ec2-101, facebook (in-process only)")
		workers   = fs.Int("workers", 0, "goroutines per engine (0 = NumCPU; in-process only)")
		listen    = fs.String("listen", "", "serve the admin HTTP plane (/metrics, /jobs, /debug/pprof) on this address during the run")
		jsonTo    = fs.String("json", "", "write bench-JSON rows to <file> (- for stdout)")
		logTo     = fs.String("log", "", "write the structured JSON event stream to <file> (- for stderr)")
		logLevel  = fs.String("log-level", "info", "minimum event level: debug, info, warn, error")
		selfcheck = fs.Bool("selfcheck", false, "after the run, probe the admin endpoints (requires -listen) and, with -server, replay every query through the DBMS oracle and fail on any row mismatch")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clients < 1 || *requests < 1 {
		return fmt.Errorf("-clients and -requests must be at least 1")
	}
	if *selfcheck && *listen == "" && *serverTo == "" {
		return fmt.Errorf("-selfcheck requires -listen or -server")
	}
	mode, err := ysmart.ParseMode(*modeName)
	if err != nil {
		return err
	}
	if _, err := ysmart.ParseCluster(*clusterN); err != nil {
		return err
	}
	names := strings.Split(*queryList, ",")
	catalog := ysmart.WorkloadCatalog()
	workload := ysmart.WorkloadQueries()
	for i, n := range names {
		names[i] = strings.TrimSpace(n)
		if _, ok := workload[names[i]]; !ok {
			return fmt.Errorf("unknown query %q (have: Q17, Q18, Q21, Q-CSA, Q-AGG)", names[i])
		}
	}

	var logger *ysmart.Logger
	if *logTo != "" {
		min, ok := ysmart.ParseLogLevel(*logLevel)
		if !ok {
			return fmt.Errorf("unknown log level %q", *logLevel)
		}
		w := io.Writer(os.Stderr)
		if *logTo != "-" {
			f, err := os.Create(*logTo)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		logger = ysmart.NewLogger(w, min)
	}

	// One registry merges every client's recordings; the engine's
	// per-job histograms and the harness's query-latency histogram
	// land side by side on /metrics.
	reg := ysmart.NewRegistry()

	var statusMu sync.Mutex
	status := make([]clientStatus, *clients)
	for i := range status {
		status[i] = clientStatus{Client: i, Query: "idle"}
	}

	var srv *httpserve.Server
	baseURL := ""
	if *listen != "" {
		srv = httpserve.New(reg, nil, func() any {
			statusMu.Lock()
			defer statusMu.Unlock()
			out := make([]clientStatus, len(status))
			copy(out, status)
			return out
		})
		addr, err := srv.Start(*listen)
		if err != nil {
			return err
		}
		defer srv.Close()
		baseURL = "http://" + addr
		fmt.Fprintf(stdout, "admin plane listening on %s\n", baseURL)
	}

	// Generate the workload data once; runtimes share the immutable rows.
	// Wire mode only needs it for the oracle selfcheck: the server owns
	// the served data.
	var tpch, clicks map[string][]ysmart.Row
	if *serverTo == "" || *selfcheck {
		if tpch, err = ysmart.GenerateTPCH(ysmart.DefaultTPCH()); err != nil {
			return err
		}
		if clicks, err = ysmart.GenerateClicks(ysmart.DefaultClicks()); err != nil {
			return err
		}
	}

	totals := make(map[string]*queryTotals, len(names))
	for _, n := range names {
		totals[n] = &queryTotals{}
	}
	var totalsMu sync.Mutex

	var next int64 // atomically claimed global request index
	var firstErr error
	var errMu sync.Mutex
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	// wireClient is one wire-mode client: a persistent connection replaying
	// queries against a running ysmart-server. Latency covers the full
	// round trip (protocol, plan cache, admission queue, execution, result
	// streaming). A server-side query error keeps the connection (the
	// protocol resyncs on ReadyForQuery); a transport error ends the client.
	wireClient := func(client int) {
		cli, err := server.Dial(*serverTo, "loadgen", "ysmart", 30*time.Second)
		if err != nil {
			fail(fmt.Errorf("client %d: dial %s: %w", client, *serverTo, err))
			return
		}
		defer cli.Close()
		for {
			idx := atomic.AddInt64(&next, 1) - 1
			if idx >= int64(*requests) {
				return
			}
			name := names[idx%int64(len(names))]
			statusMu.Lock()
			status[client].Query = name
			statusMu.Unlock()

			start := time.Now()
			res, err := cli.Query(workload[name])
			lat := time.Since(start).Seconds()
			if err != nil {
				reg.Add("ysmart_loadgen_errors_total", 1, "query", name)
				if logger.Enabled(ysmart.LogError) {
					logger.Error("loadgen.error", obs.F("query", name), obs.F("error", err.Error()))
				}
				fail(fmt.Errorf("%s: %w", name, err))
				var srvErr *server.ServerError
				if !errors.As(err, &srvErr) {
					return // transport error: this connection is gone
				}
				continue
			}
			reg.Observe("ysmart_query_latency_seconds", lat)
			reg.Observe("ysmart_query_latency_seconds", lat, "query", name)
			reg.Add("ysmart_loadgen_requests_total", 1, "query", name)
			totalsMu.Lock()
			totals[name].requests++
			totalsMu.Unlock()
			statusMu.Lock()
			status[client].Done++
			status[client].LastSeconds = lat
			status[client].LastRows = len(res.Rows)
			statusMu.Unlock()
		}
	}

	var wg sync.WaitGroup
	wallStart := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			if *serverTo != "" {
				wireClient(client)
				return
			}
			// A fresh cluster model per client: engines must not
			// share mutable model state.
			cluster, _ := ysmart.ParseCluster(*clusterN)
			rt, err := ysmart.NewRuntime(cluster)
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("client %d: %w", client, err)
				}
				errMu.Unlock()
				return
			}
			if *workers > 0 {
				rt.SetWorkers(*workers)
			}
			rt.LoadTables(tpch)
			rt.LoadTables(clicks)
			// Parse once per client so no query state is shared
			// across goroutines; translation runs per request (it
			// is part of the serving path being measured).
			queries := make(map[string]*ysmart.Query, len(names))
			for _, n := range names {
				q, err := ysmart.Parse(workload[n], catalog)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("parse %s: %w", n, err)
					}
					errMu.Unlock()
					return
				}
				queries[n] = q
			}
			runOpts := []ysmart.RunOption{ysmart.WithMetrics(reg)}
			if logger != nil {
				runOpts = append(runOpts, ysmart.WithLogger(logger))
			}
			for {
				idx := atomic.AddInt64(&next, 1) - 1
				if idx >= int64(*requests) {
					return
				}
				name := names[idx%int64(len(names))]
				statusMu.Lock()
				status[client].Query = name
				statusMu.Unlock()

				start := time.Now()
				tr, err := queries[name].Translate(mode, ysmart.Options{
					QueryName: strings.ToLower(name),
					Logger:    logger,
				})
				if err == nil {
					var res *ysmart.Result
					res, err = rt.Run(tr, runOpts...)
					if err == nil {
						totalsMu.Lock()
						t := totals[name]
						t.requests++
						t.jobs = res.Stats.NumJobs()
						t.simSeconds += res.Stats.TotalTime()
						t.scanBytes += res.Stats.TotalMapInputBytes()
						t.shuffleBytes += res.Stats.TotalShuffleBytes()
						totalsMu.Unlock()
					}
				}
				lat := time.Since(start).Seconds()
				if err != nil {
					reg.Add("ysmart_loadgen_errors_total", 1, "query", name)
					if logger.Enabled(ysmart.LogError) {
						logger.Error("loadgen.error", obs.F("query", name), obs.F("error", err.Error()))
					}
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("%s: %w", name, err)
					}
					errMu.Unlock()
					continue
				}
				reg.Observe("ysmart_query_latency_seconds", lat)
				reg.Observe("ysmart_query_latency_seconds", lat, "query", name)
				reg.Add("ysmart_loadgen_requests_total", 1, "query", name)
				statusMu.Lock()
				status[client].Done++
				status[client].LastSeconds = lat
				statusMu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(wallStart).Seconds()
	statusMu.Lock()
	for i := range status {
		status[i].Query = "done"
	}
	statusMu.Unlock()
	if firstErr != nil {
		return firstErr
	}

	system := *modeName
	if *serverTo != "" {
		system = "server" // the server chose its own mode; rows measure the wire path
	}
	rows := benchRows(reg, totals, names, system, *clients, *workers, *requests, elapsed)
	printReport(stdout, rows, *requests, elapsed)

	if *jsonTo != "" {
		var buf strings.Builder
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			return err
		}
		if *jsonTo == "-" {
			fmt.Fprint(stdout, buf.String())
		} else if err := os.WriteFile(*jsonTo, []byte(buf.String()), 0o644); err != nil {
			return err
		}
	}

	if *selfcheck {
		if *serverTo != "" {
			tables := make(map[string][]ysmart.Row, len(tpch)+len(clicks))
			for n, t := range tpch {
				tables[n] = t
			}
			for n, t := range clicks {
				tables[n] = t
			}
			if err := wireOracleCheck(*serverTo, names, workload, tables); err != nil {
				return fmt.Errorf("selfcheck: %w", err)
			}
			fmt.Fprintf(stdout, "selfcheck: server rows match the DBMS oracle for %s\n", strings.Join(names, ", "))
		}
		if baseURL != "" {
			if err := probeAdmin(baseURL); err != nil {
				return fmt.Errorf("selfcheck: %w", err)
			}
			fmt.Fprintln(stdout, "selfcheck: all admin endpoints healthy")
		}
	}
	return nil
}

// wireOracleCheck replays each query over the wire on a fresh connection and
// compares the result rows — rendered in the server's own text format and
// sorted — against the single-node DBMS oracle run on an identical locally
// generated data set. Any difference in row content or count fails.
func wireOracleCheck(addr string, names []string, workload map[string]string, tables map[string][]ysmart.Row) error {
	cli, err := server.Dial(addr, "selfcheck", "ysmart", 30*time.Second)
	if err != nil {
		return fmt.Errorf("dial %s: %w", addr, err)
	}
	defer cli.Close()
	for _, name := range names {
		sql := workload[name]
		res, err := cli.Query(sql)
		if err != nil {
			return fmt.Errorf("%s over the wire: %w", name, err)
		}
		got := make([]string, len(res.Rows))
		for i, row := range res.Rows {
			cells := make([]string, len(row))
			for j, c := range row {
				if c == nil {
					cells[j] = "NULL"
				} else {
					cells[j] = *c
				}
			}
			got[i] = strings.Join(cells, "\t")
		}
		sort.Strings(got)

		q, err := ysmart.Parse(sql, ysmart.WorkloadCatalog())
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		oracleRows, err := ysmart.OracleResult(q, ysmart.WorkloadCatalog(), tables)
		if err != nil {
			return fmt.Errorf("%s oracle: %w", name, err)
		}
		want := make([]string, len(oracleRows))
		for i, row := range oracleRows {
			cells := make([]string, len(row))
			for j, v := range row {
				cells[j] = server.TextValue(v)
			}
			want[i] = strings.Join(cells, "\t")
		}
		sort.Strings(want)

		if len(got) != len(want) {
			return fmt.Errorf("%s: server returned %d rows, oracle %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("%s: row %d differs\n  server: %s\n  oracle: %s", name, i, got[i], want[i])
			}
		}
	}
	return nil
}

// benchRows builds one "loadgen" bench row per query plus an aggregate
// "all" row, with quantiles read back from the registry's histograms.
func benchRows(reg *ysmart.Registry, totals map[string]*queryTotals, names []string,
	mode string, clients, workers, requests int, elapsed float64) []experiments.BenchRow {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	var rows []experiments.BenchRow
	for _, n := range sorted {
		t := totals[n]
		if t.requests == 0 {
			continue
		}
		p50, _ := reg.Quantile("ysmart_query_latency_seconds", 0.50, "query", n)
		p90, _ := reg.Quantile("ysmart_query_latency_seconds", 0.90, "query", n)
		p99, _ := reg.Quantile("ysmart_query_latency_seconds", 0.99, "query", n)
		rows = append(rows, experiments.BenchRow{
			Figure: "loadgen", Query: n, System: mode,
			Workers: workers, Clients: clients,
			Jobs: t.jobs, Seconds: t.simSeconds / float64(t.requests),
			ScanBytes: t.scanBytes, ShuffleBytes: t.shuffleBytes,
			Requests: t.requests, QPS: float64(t.requests) / elapsed,
			P50: p50, P90: p90, P99: p99,
		})
	}
	p50, _ := reg.Quantile("ysmart_query_latency_seconds", 0.50)
	p90, _ := reg.Quantile("ysmart_query_latency_seconds", 0.90)
	p99, _ := reg.Quantile("ysmart_query_latency_seconds", 0.99)
	rows = append(rows, experiments.BenchRow{
		Figure: "loadgen", Query: "all", System: mode,
		Workers: workers, Clients: clients,
		Requests: requests, QPS: float64(requests) / elapsed,
		P50: p50, P90: p90, P99: p99,
	})
	return rows
}

// printReport renders the human-readable latency table.
func printReport(w io.Writer, rows []experiments.BenchRow, requests int, elapsed float64) {
	fmt.Fprintf(w, "== load report: %d requests in %.2fs ==\n", requests, elapsed)
	fmt.Fprintf(w, "%-8s %8s %10s %10s %10s %10s\n", "query", "requests", "qps", "p50_ms", "p90_ms", "p99_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %8d %10.1f %10.2f %10.2f %10.2f\n",
			r.Query, r.Requests, r.QPS, r.P50*1e3, r.P90*1e3, r.P99*1e3)
	}
}

// probeAdmin asserts the admin plane's endpoints answer 200 and that the
// metrics body carries the query-latency histogram families.
func probeAdmin(base string) error {
	for _, path := range []string{"/metrics", "/jobs", "/trace", "/debug/pprof/"} {
		resp, err := http.Get(base + path)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if path == "/metrics" {
			for _, family := range []string{
				"ysmart_query_latency_seconds_bucket",
				"ysmart_query_latency_seconds_sum",
				"ysmart_query_latency_seconds_count",
			} {
				if !strings.Contains(string(body), family) {
					return fmt.Errorf("GET /metrics: missing %s family", family)
				}
			}
		}
	}
	return nil
}
