// Command bench is the repository's committed yardstick: four wire
// workloads driven over real pgwire against a child-process
// internal/server, reported through estimators built for a noisy shared
// host, plus an outside-in per-layer ledger from a traced replay.
//
//	bench run    --workload W --seed S --seconds N --trace 0|1
//	bench trace  --workload W --seed S      # run --trace 1, predictions enforced
//	bench repeat --sets 2 --runs 5          # same-code agreement within the bounds
//	bench manifest                          # render BENCHMARK.json
//	bench serve  ...                        # the server child (internal)
//
// `run` spawns this binary again as `bench serve` (GOMAXPROCS=2): the
// child hosts server.New + Listen over datasets generated from the seed and
// answers a benchmark-owned control endpoint on its stdin/stdout
// (RegisterDataset, MemStats, getrusage, forced GC, registry values). The
// parent drives it in a closed loop with server.Dial/Client.Query on at
// most min(2, nproc) connections, verifies every answer against the
// single-node DBMS oracle, prints every metric by name and unit and ends
// with one JSON line. See README.md in this directory for the metric
// definitions, the workloads and the estimator.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
)

// buildDir is where the benchmark keeps what it writes (its own binary and
// Go build cache, put there by run.sh, and trace files).
const buildDir = ".bench_build"

func main() {
	if os.Getenv(childEnv) != "" {
		if err := serveMain(os.Args[2:], os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench serve:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain dispatches the sub-commands and returns the exit code.
func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: bench run|trace|repeat|manifest [flags]")
		return 2
	}
	ps := newProcs()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		ps.stopAll()
		os.Exit(130)
	}()
	defer signal.Stop(sig)
	// The load generator is not what is measured: let it collect rarely so
	// its own GC work disturbs the two shared cores less.
	debug.SetGCPercent(400)

	var err error
	switch args[0] {
	case "run":
		err = runCmd(args[1:], false, stdout, stderr, ps)
	case "trace":
		err = runCmd(append([]string{"--trace", "1"}, args[1:]...), true, stdout, stderr, ps)
	case "repeat":
		err = repeatCmd(args[1:], stdout, stderr, ps)
	case "manifest":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(manifest())
	default:
		err = fmt.Errorf("unknown sub-command %q", args[0])
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runFlags are the flags `run` and `trace` take: the driver's contract and
// nothing else, so that two figures under one ledger name always come from
// the same estimator.
type runFlags struct {
	workload string
	seed     int64
	trace    int
	opt      runOptions
}

func parseRunFlags(name string, args []string, stderr io.Writer) (*runFlags, error) {
	f := &runFlags{opt: defaultOptions()}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&f.workload, "workload", "", "workload name (engine_warm, plan_cold, reuse_churn, wire_results)")
	fs.Int64Var(&f.seed, "seed", 1, "seed of the generated datasets and op lists")
	fs.IntVar(&f.opt.seconds, "seconds", defaultSeconds, "nominal length of the measured phase; scales the fixed per-round op counts")
	fs.IntVar(&f.trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: the traced run's per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if f.opt.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	return f, nil
}

// runCmd is `bench run` (and `bench trace`, which enforces the dominance
// predictions). It fails when any op failed.
func runCmd(args []string, enforce bool, stdout, stderr io.Writer, ps *procs) error {
	f, err := parseRunFlags("bench run", args, stderr)
	if err != nil {
		return err
	}
	s, err := findSpec(f.workload)
	if err != nil {
		return err
	}
	f.opt.log, f.opt.procs = stderr, ps
	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%d trace=%d\n", s.name, f.seed, f.opt.seconds, f.trace)
	run, defs := runEndToEnd, endToEnd
	if f.trace != 0 {
		run, defs = runTrace, perLayer
	}
	out, err := run(s, f.seed, f.opt)
	if err != nil {
		return err
	}
	if err := emit(stdout, defs, out); err != nil {
		return err
	}
	if enforce && len(out.broken) > 0 {
		return fmt.Errorf("%d dominance prediction(s) did not hold: %v", len(out.broken), out.broken)
	}
	if out.failed > 0 {
		return fmt.Errorf("%d op(s) failed", out.failed)
	}
	return nil
}
