package optanalysis

import (
	"encoding/json"
	"fmt"
	"strings"

	"ysmart/internal/exec"
)

// Report is the full result of one Analyze call: every job literal
// found, with the rewrites the analysis could prove and the ones it
// refused.
type Report struct {
	// Jobs lists one entry per mapreduce.Job composite literal, sorted by
	// job name then source position.
	Jobs []*JobReport
}

// JobReport is the analysis result for one Job literal.
type JobReport struct {
	// Name is the job's constant name ("" when the literal's name could
	// not be resolved — see the job-level refusal).
	Name string `json:"name"`
	// Pos is the file:line of the job literal.
	Pos string `json:"pos"`
	// Rewrites are the optimizations the analysis proved sound.
	Rewrites []*Rewrite `json:"rewrites,omitempty"`
	// Refusals are the optimizations it declined, each with the blocking
	// reason.
	Refusals []Refusal `json:"refusals,omitempty"`
}

// refuse records a declined rewrite.
func (jr *JobReport) refuse(kind string, input int, reason, pos string) {
	jr.Refusals = append(jr.Refusals, Refusal{Kind: kind, Input: input, Reason: reason, Pos: pos})
}

// Rewrite is one proven optimization, carrying both the human-readable
// explanation and the unexported runtime hooks Apply installs.
type Rewrite struct {
	// Job and Input locate the rewrite target (input index into
	// Job.Inputs).
	Job   string `json:"job"`
	Input int    `json:"input"`
	// Kind is early-filter, reducer-pushdown, or projection-trim.
	Kind string `json:"kind"`
	// Table is the catalog table whose schema the proof used.
	Table string `json:"table"`
	// Predicate renders the keep-condition (filter kinds only).
	Predicate string `json:"predicate,omitempty"`
	// Columns are the dead columns a trim blanks.
	Columns []string `json:"columns,omitempty"`
	// Path is the helper-call chain that discharged the guard, empty for
	// guards inline in the map function.
	Path string `json:"path,omitempty"`
	// Applied is set by Apply once the rewrite is installed.
	Applied bool `json:"applied"`

	// Runtime hooks, populated by the analyzer and consumed by Apply;
	// excluded from JSON.
	guard  *pred
	schema *exec.Schema
	dead   []int
}

// Refusal is one declined rewrite with its blocking reason.
type Refusal struct {
	// Kind names the rewrite declined — a rewrite kind, or "job" when
	// the whole literal was out of scope.
	Kind string `json:"kind"`
	// Input is the input index, or -1 for job- and reducer-level reasons.
	Input int `json:"input"`
	// Reason explains exactly what blocked the rewrite.
	Reason string `json:"reason"`
	// Pos is the source position the reason points at.
	Pos string `json:"pos"`
}

// Counts returns how many rewrites and refusals the report holds.
func (r *Report) Counts() (rewrites, refusals int) {
	for _, jr := range r.Jobs {
		rewrites += len(jr.Rewrites)
		refusals += len(jr.Refusals)
	}
	return rewrites, refusals
}

// JSON renders the report as indented JSON (runtime hooks excluded).
func (r *Report) JSON() string {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Sprintf("{%q: %q}", "error", err.Error())
	}
	return string(b)
}

// Format renders the report for humans: per job, the applied (or
// applicable) rewrites with predicate, dropped columns and discharge
// path, then every refusal with its reason.
func (r *Report) Format() string {
	var b strings.Builder
	rewrites, refusals := r.Counts()
	fmt.Fprintf(&b, "optanalysis: %d job(s), %d rewrite(s), %d refusal(s)\n",
		len(r.Jobs), rewrites, refusals)
	for _, jr := range r.Jobs {
		name := jr.Name
		if name == "" {
			name = "(unnamed)"
		}
		fmt.Fprintf(&b, "\njob %s (%s)\n", name, jr.Pos)
		for _, rw := range jr.Rewrites {
			status := "provable"
			if rw.Applied {
				status = "applied"
			}
			fmt.Fprintf(&b, "  + %s input[%d] on %s [%s]\n", rw.Kind, rw.Input, rw.Table, status)
			if rw.Predicate != "" {
				fmt.Fprintf(&b, "      keep rows where: %s\n", rw.Predicate)
			}
			if rw.Path != "" {
				fmt.Fprintf(&b, "      discharged via: %s\n", rw.Path)
			}
			if len(rw.Columns) > 0 {
				fmt.Fprintf(&b, "      columns dropped: %s\n", strings.Join(rw.Columns, ", "))
			}
		}
		for _, rf := range jr.Refusals {
			at := ""
			if rf.Input >= 0 {
				at = fmt.Sprintf(" input[%d]", rf.Input)
			}
			fmt.Fprintf(&b, "  - refused %s%s: %s (%s)\n", rf.Kind, at, rf.Reason, rf.Pos)
		}
	}
	return b.String()
}
