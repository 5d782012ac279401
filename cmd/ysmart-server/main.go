// Command ysmart-server serves SQL as a long-running service: a TCP server
// speaking the PostgreSQL simple query protocol over the paper's registered
// workload datasets, so a stock psql client can connect and run queries
// against the simulated cluster:
//
//	ysmart-server -addr 127.0.0.1:5433 &
//	psql -h 127.0.0.1 -p 5433 -c 'SELECT cid, count(*) AS n FROM clicks GROUP BY cid'
//
// Every connection gets a private session runtime; all sessions share one
// plan cache (normalized SQL -> translated job chain; -cache-size) and one
// admission controller (-max-inflight executing queries, -max-queued FIFO
// waiters, -query-timeout per query). The admin HTTP plane rides along on
// -listen with /sessions plus cache/admission families on /metrics:
//
//	ysmart-server -addr 127.0.0.1:5433 -listen 127.0.0.1:8080 \
//	    -max-inflight 8 -cache-size 64 -query-timeout 30s
//
// Fault injection and the engine worker pool pass through to each session
// runtime (-faults, -fault-seed, -workers), and -log streams the server's
// structured JSON events.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ysmart"
	"ysmart/internal/obs/httpserve"
	"ysmart/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "ysmart-server:", err)
		os.Exit(1)
	}
}

// run starts the server and blocks until an interrupt (or a test-supplied
// ready callback returns a stop signal). ready, when non-nil, receives the
// bound SQL and admin addresses and returns a channel whose close triggers
// shutdown — the test hook replacing SIGINT.
func run(args []string, stdout io.Writer, ready func(sqlAddr, adminAddr string) <-chan struct{}) error {
	fs := flag.NewFlagSet("ysmart-server", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:5433", "address to serve the PostgreSQL wire protocol on (port 0 picks a free port)")
		modeName  = fs.String("mode", "ysmart", "translation mode: ysmart, one-to-one, pig-like, ic-tc-only")
		clusterN  = fs.String("cluster", "small", "cluster model per session runtime: small, ec2-11, ec2-101, facebook")
		workers   = fs.Int("workers", 0, "goroutines per session engine (0 = NumCPU)")
		inflight  = fs.Int("max-inflight", 4, "queries executing concurrently across all sessions")
		queued    = fs.Int("max-queued", 64, "queries waiting in the admission FIFO before new ones are rejected")
		timeout   = fs.Duration("query-timeout", 0, "per-query bound on admission wait + execution (0 = unlimited); a timed-out run stops at its next work item and answers SQLSTATE 57014")
		cacheSize = fs.Int("cache-size", 128, "plan cache capacity in distinct normalized queries")
		manimal   = fs.Bool("manimal", false, "apply MANIMAL-style scan rewrites to every translated plan (optimized plans cache under separate keys)")
		reuseOn   = fs.Bool("reuse", false, "enable the cross-query materialized-output store: later queries skip jobs whose sub-plan artifacts are still valid")
		reuseCap  = fs.Int64("reuse-cap", 0, "reuse store capacity in artifact bytes (0 = unbounded); the cost-model eviction policy decides what survives")
		faults    = fs.String("faults", "", `fault scenario per session runtime, e.g. "task=0.1,straggler=0.05x6,node=2@500"`)
		faultSeed = fs.Int64("fault-seed", 1, "seed of the deterministic fault scenario")
		listen    = fs.String("listen", "", "serve the admin HTTP plane (/metrics, /sessions, /jobs, /debug/pprof) on this address")
		logTo     = fs.String("log", "", "write the structured JSON event stream to <file> (- for stderr)")
		logLevel  = fs.String("log-level", "info", "minimum event level: debug, info, warn, error")
		drainFor  = fs.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight queries before cancelling them (SQLSTATE 57P01) and closing connections")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode, err := ysmart.ParseMode(*modeName)
	if err != nil {
		return err
	}
	if _, err := ysmart.ParseCluster(*clusterN); err != nil {
		return err
	}
	if *faults != "" {
		if _, err := ysmart.ParseFaultSpec(*faults); err != nil {
			return err
		}
	}

	logger, closeLog, err := ysmart.OpenLog(*logTo, *logLevel)
	if err != nil {
		return err
	}
	defer closeLog()

	fmt.Fprintln(stdout, "generating workload datasets...")
	rows, err := ysmart.WorkloadTables()
	if err != nil {
		return err
	}

	reg := ysmart.NewRegistry()
	cfg := server.Config{
		Catalog: ysmart.WorkloadCatalog(),
		Cluster: func() *ysmart.Cluster {
			// Called once per session runtime, with flags validated
			// above. Nothing writes a Cluster or FaultPlan after NewEngine.
			cluster, _ := ysmart.ParseCluster(*clusterN)
			if *faults != "" {
				plan, _ := ysmart.ParseFaultSpec(*faults)
				plan.Seed = *faultSeed
				cluster.Faults = plan
			}
			return cluster
		},
		Mode:          mode,
		Workers:       *workers,
		MaxInflight:   *inflight,
		MaxQueued:     *queued,
		QueryTimeout:  *timeout,
		CacheSize:     *cacheSize,
		Registry:      reg,
		Logger:        logger,
		Manimal:       *manimal,
		Reuse:         *reuseOn,
		ReuseCapBytes: *reuseCap,
	}
	srv, err := server.New(cfg, server.EncodeTables(rows))
	if err != nil {
		return err
	}

	sqlAddr, err := srv.Listen(*addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "serving the PostgreSQL wire protocol on %s\n", sqlAddr)
	fmt.Fprintln(stdout, psqlHint(sqlAddr))

	adminAddr := ""
	if *listen != "" {
		admin := httpserve.New(reg, nil, func() any { return srv.Sessions() })
		admin.Handle("/sessions", httpserve.JSONHandler(func() any { return srv.Sessions() }))
		adminAddr, err = admin.Start(*listen)
		if err != nil {
			return err
		}
		defer admin.Close()
		fmt.Fprintf(stdout, "admin plane listening on http://%s\n", adminAddr)
	}

	var stop <-chan struct{}
	if ready != nil {
		stop = ready(sqlAddr, adminAddr)
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		ch := make(chan struct{})
		go func() { <-sig; close(ch) }()
		stop = ch
	}
	<-stop

	fmt.Fprintln(stdout, "shutting down...")
	if !srv.Shutdown(*drainFor) {
		fmt.Fprintln(stdout, "drain timeout: in-flight queries cancelled")
	}
	return nil
}

// psqlHint is the psql command line that reaches the server bound at addr.
// The host goes out without the brackets of an IPv6 literal, which libpq
// does not accept.
func psqlHint(addr string) string {
	host, port, _ := net.SplitHostPort(addr)
	return fmt.Sprintf("try: psql -h %s -p %s -c 'SELECT cid, count(*) AS n FROM clicks GROUP BY cid'", host, port)
}
