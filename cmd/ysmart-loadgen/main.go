// Command ysmart-loadgen replays a stream of workload queries at N
// concurrent clients and reports sustained QPS plus wall-clock latency
// quantiles (p50/p90/p99) read back from the shared observability
// registry's latency histograms.
//
// Every client is a PostgreSQL wire connection, so latency is end to end:
// protocol round trip, plan cache, admission, execution, result
// streaming. Without -server the harness serves the workload datasets
// from an embedded ysmart server on a loopback port (-mode, -cluster and
// -workers configure it; admission admits every client, so nothing
// queues); with -server it drives a running ysmart-server instead.
//
//	ysmart-loadgen -clients 4 -requests 64                 # quick local run
//	ysmart-loadgen -requests 200 -listen 127.0.0.1:8080    # live /metrics, /jobs
//	ysmart-loadgen -requests 20 -json - -log events.jsonl  # bench rows + event log
//	ysmart-loadgen -requests 10 -listen 127.0.0.1:0 -selfcheck   # CI smoke
//	ysmart-loadgen -server 127.0.0.1:5433 -clients 8 -requests 200   # drive a server
//
// All clients (and the embedded server) record into one obs.Registry, so
// the admin HTTP plane serves a live, merged view of the run. -selfcheck
// replays every query through the single-node DBMS oracle and fails
// unless the server's rows match exactly, then probes the admin endpoints
// when -listen is set.
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
	if err := run(os.Args[1:], os.Stdout, ysmart.NewRegistry()); err != nil {
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
	LastRows    int     `json:"last_rows,omitempty"`
}

// run replays the stream; every recording lands in reg.
func run(args []string, stdout io.Writer, reg *ysmart.Registry) error {
	fs := flag.NewFlagSet("ysmart-loadgen", flag.ContinueOnError)
	var (
		queryList = fs.String("queries", "Q17,Q18,Q21,Q-CSA,Q-AGG", "comma-separated workload query names to replay round-robin")
		clients   = fs.Int("clients", 4, "concurrent clients, one wire connection each")
		requests  = fs.Int("requests", 32, "total requests across all clients")
		serverTo  = fs.String("server", "", "drive a running ysmart-server at this host:port instead of the embedded one")
		modeName  = fs.String("mode", "ysmart", "translation mode: ysmart, one-to-one, pig-like, ic-tc-only (embedded server only)")
		clusterN  = fs.String("cluster", "small", "cluster model: small, ec2-11, ec2-101, facebook (embedded server only)")
		workers   = fs.Int("workers", 0, "goroutines per session engine (0 = NumCPU; embedded server only)")
		listen    = fs.String("listen", "", "serve the admin HTTP plane (/metrics, /jobs, /debug/pprof) on this address during the run")
		jsonTo    = fs.String("json", "", "write bench-JSON rows to <file> (- for stdout)")
		logTo     = fs.String("log", "", "write the structured JSON event stream to <file> (- for stderr)")
		logLevel  = fs.String("log-level", "info", "minimum event level: debug, info, warn, error")
		selfcheck = fs.Bool("selfcheck", false, "after the run, replay every query through the DBMS oracle and fail on any row mismatch, then probe the admin endpoints when -listen is set")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clients < 1 || *requests < 1 {
		return fmt.Errorf("-clients and -requests must be at least 1")
	}
	mode, err := ysmart.ParseMode(*modeName)
	if err != nil {
		return err
	}
	if _, err := ysmart.ParseCluster(*clusterN); err != nil {
		return err
	}
	names := strings.Split(*queryList, ",")
	workload := ysmart.WorkloadQueries()
	for i, n := range names {
		names[i] = strings.TrimSpace(n)
		if _, ok := workload[names[i]]; !ok {
			return fmt.Errorf("unknown query %q (have: Q17, Q18, Q21, Q-CSA, Q-AGG)", names[i])
		}
	}

	logger, closeLog, err := ysmart.OpenLog(*logTo, *logLevel)
	if err != nil {
		return err
	}
	defer closeLog()

	var statusMu sync.Mutex
	status := make([]clientStatus, *clients)
	for i := range status {
		status[i] = clientStatus{Client: i, Query: "idle"}
	}

	baseURL := ""
	if *listen != "" {
		admin := httpserve.New(reg, nil, func() any {
			statusMu.Lock()
			defer statusMu.Unlock()
			out := make([]clientStatus, len(status))
			copy(out, status)
			return out
		})
		adminAddr, err := admin.Start(*listen)
		if err != nil {
			return err
		}
		defer admin.Close()
		baseURL = "http://" + adminAddr
		fmt.Fprintf(stdout, "admin plane listening on %s\n", baseURL)
	}

	// The workload data feeds the embedded server and the oracle; a run
	// against -server without -selfcheck needs neither.
	var tables map[string][]ysmart.Row
	if *serverTo == "" || *selfcheck {
		if tables, err = ysmart.WorkloadTables(); err != nil {
			return err
		}
	}

	// Without -server the harness serves the data itself, over the same
	// wire path a deployed ysmart-server runs; rows then name the mode it
	// was given, where a running server chose its own.
	addr, system := *serverTo, "server"
	if addr == "" {
		srv, err := server.New(server.Config{
			Catalog: ysmart.WorkloadCatalog(),
			Cluster: func() *ysmart.Cluster {
				cluster, _ := ysmart.ParseCluster(*clusterN)
				return cluster
			},
			Mode:        mode,
			Workers:     *workers,
			MaxInflight: *clients,
			CacheSize:   len(names),
			Registry:    reg,
			Logger:      logger,
		}, server.EncodeTables(tables))
		if err != nil {
			return err
		}
		if addr, err = srv.Listen("127.0.0.1:0"); err != nil {
			return err
		}
		defer srv.Shutdown(10 * time.Second)
		system = *modeName
	}

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

	// wireClient is one client: a persistent connection replaying queries.
	// Latency covers the full round trip (protocol, plan cache, admission
	// queue, execution, result streaming). A server-side query error keeps
	// the connection (the protocol resyncs on ReadyForQuery); a transport
	// error ends the client.
	wireClient := func(client int) {
		cli, err := server.Dial(addr, "loadgen", "ysmart", 30*time.Second)
		if err != nil {
			fail(fmt.Errorf("client %d: dial %s: %w", client, addr, err))
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
		go func() {
			defer wg.Done()
			wireClient(c)
		}()
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

	rows := benchRows(reg, names, system, *clients, *workers, *requests, elapsed)
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
		if err := wireOracleCheck(addr, names, workload, tables); err != nil {
			return fmt.Errorf("selfcheck: %w", err)
		}
		fmt.Fprintf(stdout, "selfcheck: server rows match the DBMS oracle for %s\n", strings.Join(names, ", "))
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
func benchRows(reg *ysmart.Registry, names []string,
	mode string, clients, workers, requests int, elapsed float64) []experiments.BenchRow {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	var rows []experiments.BenchRow
	for _, n := range sorted {
		served := int(reg.Value("ysmart_loadgen_requests_total", "query", n))
		if served == 0 {
			continue
		}
		p50, _ := reg.Quantile("ysmart_query_latency_seconds", 0.50, "query", n)
		p90, _ := reg.Quantile("ysmart_query_latency_seconds", 0.90, "query", n)
		p99, _ := reg.Quantile("ysmart_query_latency_seconds", 0.99, "query", n)
		rows = append(rows, experiments.BenchRow{
			Figure: "loadgen", Query: n, System: mode,
			Workers: workers, Clients: clients,
			Requests: served, QPS: float64(served) / elapsed,
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
