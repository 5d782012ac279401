// Command ysmart-vet runs the repo's custom static-analysis suite: the
// determinism check in internal/lint, which keeps the simulator's
// replay byte-identical — no wall-clock reads, no global rand, no
// map-ordered emission, transitively through the call graph. It is the
// one check kept because it catches what `go test` and `go test -race`
// cannot: output whose order differs from run to run.
//
// Usage:
//
//	ysmart-vet [-json] [package patterns]
//	ysmart-vet -optimize [-json] [package patterns]
//
// With no patterns it vets ./... from the current directory, applying
// the check's package scope. Explicit directory patterns bypass the
// scope (used by the golden corpora). -json emits the diagnostics as a
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
	asJSON := fs.Bool("json", false, "emit diagnostics as a JSON array for CI annotations")
	optimize := fs.Bool("optimize", false, "report the MANIMAL rewrites provable for each mapreduce.Job literal instead of vetting")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if *optimize {
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

	diags, err := lint.Vet(".", patterns)
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
