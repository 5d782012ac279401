package translator

import (
	"fmt"
	"strings"
	"testing"

	"ysmart/internal/mapreduce"
	"ysmart/internal/queries"
)

// mapLine runs one line through a mapper and renders what it did.
func mapLine(m mapreduce.Mapper, line string) string {
	var out []string
	err := m.Map(line, func(k, v string) { out = append(out, k+"|"+v) })
	return fmt.Sprintf("%q %v", out, err)
}

// TestMapTaskMatchesOneLineMapper is the map side's lifetime proof, the
// twin of cmf's reused-reducer test: for every workload query in every
// mode, each input's mapper run as one task instance over the input file —
// its scratch reused line after line, through malformed lines and errors —
// emits exactly the pairs and errors a fresh one-line Map gives each line.
func TestMapTaskMatchesOneLineMapper(t *testing.T) {
	for name, sql := range queries.Named() {
		for _, mode := range []Mode{OneToOne, PigLike, ICTCOnly, YSmart} {
			dfs, _ := workload(t)
			tr := translate(t, sql, mode, Options{QueryName: "maptask"})
			runMR(t, tr, dfs) // writes the intermediate files the later jobs read
			for _, j := range tr.Jobs {
				for ii, in := range j.Inputs {
					factory, ok := in.Mapper.(mapreduce.MapTaskFactory)
					if !ok {
						continue
					}
					lines, err := dfs.Read(in.Path)
					if err != nil {
						t.Fatal(err)
					}
					if len(lines) > 300 {
						lines = lines[:300]
					}
					// Malformed variants between well-formed lines: a short
					// line, a bad first field, an empty line.
					var feed []string
					for i, line := range lines {
						feed = append(feed, line)
						switch i % 50 {
						case 7:
							feed = append(feed, line[:strings.LastIndexByte(line, '\t')+1])
						case 23:
							feed = append(feed, "x"+line)
						case 41:
							feed = append(feed, "")
						}
					}
					task := factory.NewMapTask()
					for _, line := range feed {
						if got, want := mapLine(task, line), mapLine(in.Mapper, line); got != want {
							t.Fatalf("%s/%v %s input %d, line %q:\n task     %s\n one-line %s", name, mode, j.Name, ii, line, got, want)
						}
					}
				}
			}
		}
	}
}

// TestAllocBudgetScanMapTask holds generated scan mappers — shared scans
// with per-stream selections, a single-stream scan with a map-side filter
// stage — to the map task's budget: once warmed, a line that emits costs
// only its share of a pair chunk, none amortised, and a line that is
// filtered out costs nothing. Warmed
// means by any line, filtered or not: a fresh task fed nothing but
// filtered lines keeps the scratch its first one grew, as a morsel of a
// selective scan that emits nothing for a while must.
func TestAllocBudgetScanMapTask(t *testing.T) {
	dfs, _ := workload(t)
	var emittedChecked, filteredChecked, freshChecked int
	for _, sql := range []string{
		queries.Q21, // lineitem shared by a filtered and an unfiltered stream; orders filtered
		`SELECT a.l_orderkey, a.l_quantity, b.l_quantity FROM lineitem a, lineitem b
			WHERE a.l_orderkey = b.l_orderkey AND a.l_quantity > 40 AND b.l_quantity > 45`,
	} {
		tr := translate(t, sql, YSmart, Options{QueryName: "budget"})
		for _, j := range tr.Jobs {
			for ii, in := range j.Inputs {
				if !strings.HasPrefix(in.Path, "tables/") {
					continue
				}
				lines, err := dfs.Read(in.Path)
				if err != nil {
					t.Fatal(err)
				}
				task := in.Mapper.(mapreduce.MapTaskFactory).NewMapTask()
				var emitted, filtered string
				for _, line := range lines {
					pairs := 0
					if err := task.Map(line, func(string, string) { pairs++ }); err != nil {
						t.Fatal(err)
					}
					if pairs > 0 && emitted == "" {
						emitted = line
					}
					if pairs == 0 && filtered == "" {
						filtered = line
					}
				}
				for _, c := range []struct {
					line   string
					budget float64
					count  *int
				}{{emitted, 0, &emittedChecked}, {filtered, 0, &filteredChecked}} {
					if c.line == "" {
						continue // a scan with an unfiltered stream emits every line
					}
					*c.count++
					got := testing.AllocsPerRun(200, func() {
						if err := task.Map(c.line, func(string, string) {}); err != nil {
							t.Fatal(err)
						}
					})
					if got > c.budget {
						t.Errorf("%s input %d (%s), line %q: %v allocations, budget %v", j.Name, ii, in.Path, c.line, got, c.budget)
					}
				}
				if filtered == "" {
					continue
				}
				freshChecked++
				fresh := in.Mapper.(mapreduce.MapTaskFactory).NewMapTask()
				pairs := 0
				count := func(string, string) { pairs++ }
				// AllocsPerRun's warm-up call is the task's first line.
				got := testing.AllocsPerRun(200, func() {
					if err := fresh.Map(filtered, count); err != nil {
						t.Fatal(err)
					}
				})
				if pairs != 0 {
					t.Fatalf("%s input %d: a filtered line emitted on a fresh task", j.Name, ii)
				}
				if got > 0 {
					t.Errorf("%s input %d (%s): %v allocations per filtered line on a task that never emitted, budget 0", j.Name, ii, in.Path, got)
				}
			}
		}
	}
	if emittedChecked < 3 || filteredChecked < 2 || freshChecked < 2 {
		t.Errorf("checked %d emitted, %d filtered and %d fresh-task filtered lines: the scans no longer select", emittedChecked, filteredChecked, freshChecked)
	}
}
