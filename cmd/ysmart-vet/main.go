// Command ysmart-vet runs the repo's custom static-analysis suite: the
// analyzers in internal/lint that enforce the invariants the simulator's
// correctness rests on — deterministic replay (no wall-clock, no global
// rand, no map-ordered emission, transitively through the call graph),
// data-race freedom in parallel task bodies (sharecheck), and fresh
// reduce-task instances that never write their factory (concreduce).
// Every run also audits lint:ignore directives
// and reports the ones that silence nothing ([staleignore]).
//
// Usage:
//
//	ysmart-vet [-list] [-check a,b] [-json] [package patterns]
//	ysmart-vet -optimize [-json] [package patterns]
//
// With no patterns it vets ./... from the current directory, applying
// each analyzer's package scope. Explicit directory patterns bypass the
// scopes (used by the golden corpora). -json emits the diagnostics as a
// JSON array on stdout (one object per finding: file, line, col, check,
// message) for CI annotation tooling. Exit status is 1 when any
// diagnostic is reported and 2 on a driver error.
//
// -optimize switches to report-only MANIMAL mode: instead of vetting, it
// runs the internal/optanalysis static optimizer over every mapreduce.Job
// literal in the matched packages and prints which early-filter,
// reducer-pushdown and projection-trim rewrites are provably sound (and
// which were refused, with reasons). It never rewrites anything — the
// -manimal flag on ysmart and ysmart-server applies the rewrites at run
// time. Exit status is 0 even when rewrites are found; 2 on driver error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"ysmart/internal/lint"
	"ysmart/internal/optanalysis"
)

// jsonDiag is the wire form of one diagnostic under -json.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("ysmart-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the registered analyzers and exit")
	check := fs.String("check", "", "comma-separated analyzer names to run (default: all)")
	asJSON := fs.Bool("json", false, "emit diagnostics as a JSON array for CI annotations")
	optimize := fs.Bool("optimize", false, "report the MANIMAL rewrites provable for each mapreduce.Job literal instead of vetting")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *optimize {
		patterns := fs.Args()
		if len(patterns) == 0 {
			patterns = []string{"./..."}
		}
		rep, err := optanalysis.Analyze(".", patterns)
		if err != nil {
			fmt.Fprintf(stderr, "ysmart-vet: %v\n", err)
			return 2
		}
		if *asJSON {
			fmt.Fprintln(stdout, rep.JSON())
		} else {
			fmt.Fprint(stdout, rep.Format())
		}
		return 0
	}

	if *list {
		for _, a := range lint.Analyzers {
			scope := "all packages"
			if len(a.Packages) > 0 {
				scope = strings.Join(a.Packages, ", ")
			}
			fmt.Fprintf(stdout, "%-12s %s (%s)\n", a.Name, a.Doc, scope)
		}
		return 0
	}

	analyzers := lint.Analyzers
	if *check != "" {
		byName := make(map[string]*lint.Analyzer)
		for _, a := range lint.Analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*check, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(stderr, "ysmart-vet: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := lint.Vet(".", patterns, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "ysmart-vet: %v\n", err)
		return 2
	}
	if *asJSON {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File:    d.Pos.Filename,
				Line:    d.Pos.Line,
				Col:     d.Pos.Column,
				Check:   d.Check,
				Message: d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "ysmart-vet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
