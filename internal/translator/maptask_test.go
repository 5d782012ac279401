package translator

import (
	"fmt"
	"strings"
	"testing"

	"ysmart/internal/mapreduce"
	"ysmart/internal/queries"
)

// mapLine runs one line through a map instance and renders what it did.
func mapLine(m mapreduce.MapTask, line string) string {
	var out []string
	err := m.Map(line, func(k, v string) { out = append(out, k+"|"+v) })
	return fmt.Sprintf("%q %v", out, err)
}

// TestMapTaskMatchesOneLineMapper is the map side's lifetime proof, the
// twin of cmf's reused-reducer test: for every workload query in every
// mode, each input's mapper run as one instance over the input file — its
// scratch reused line after line, through malformed lines and errors —
// emits exactly the pairs and errors a fresh instance gives each line.
func TestMapTaskMatchesOneLineMapper(t *testing.T) {
	for name, sql := range queries.Named() {
		for _, mode := range []Mode{OneToOne, PigLike, ICTCOnly, YSmart} {
			dfs, _ := workload(t)
			tr := translate(t, sql, mode, Options{QueryName: "maptask"})
			runMR(t, tr, dfs) // writes the intermediate files the later jobs read
			for _, j := range tr.Jobs {
				for ii, in := range j.Inputs {
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
					task := in.Mapper.NewMapTask()
					for _, line := range feed {
						if got, want := mapLine(task, line), mapLine(in.Mapper.NewMapTask(), line); got != want {
							t.Fatalf("%s/%v %s input %d, line %q:\n reused %s\n fresh  %s", name, mode, j.Name, ii, line, got, want)
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
// nothing (it emits views of the task's pair buffer, which the worker's
// Output copies), and a line that is filtered out costs nothing. Warmed
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
				task := in.Mapper.NewMapTask()
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
				fresh := in.Mapper.NewMapTask()
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

// TestAllocBudgetEarlyFilter holds the MANIMAL early filter to the map
// task's budget: a warmed optimized task drops a line with ErrFiltered at
// no allocation, for a single-stream scan and for a shared scan, and emits
// a passing line at no more allocations than the unwrapped task.
func TestAllocBudgetEarlyFilter(t *testing.T) {
	dfs, _ := workload(t)
	checked := 0
	for _, sql := range []string{
		`SELECT l_orderkey, count(*) AS n FROM lineitem WHERE l_quantity > 40 GROUP BY l_orderkey`,
		`SELECT a.l_orderkey, a.l_quantity, b.l_quantity FROM lineitem a, lineitem b
			WHERE a.l_orderkey = b.l_orderkey AND a.l_quantity > 40 AND b.l_quantity > 45`,
	} {
		plain := translate(t, sql, YSmart, Options{QueryName: "budget"})
		opt := translate(t, sql, YSmart, Options{QueryName: "budget"})
		applied, _ := ApplyScanFacts(opt)
		for _, fact := range applied {
			if fact.Table != "lineitem" {
				continue
			}
			var plainTask, optTask mapreduce.MapTask
			for i, j := range opt.Jobs {
				if j.Name == fact.Job {
					plainTask = plain.Jobs[i].Inputs[fact.InputIdx].Mapper.NewMapTask()
					optTask = j.Inputs[fact.InputIdx].Mapper.NewMapTask()
				}
			}
			lines, err := dfs.Read(fact.Path)
			if err != nil {
				t.Fatal(err)
			}
			var emitted, filtered string
			for _, line := range lines {
				pairs := 0
				err := optTask.Map(line, func(string, string) { pairs++ })
				switch {
				case err == mapreduce.ErrFiltered && pairs == 0:
					filtered = line
				case err == nil && pairs > 0:
					emitted = line
				default:
					t.Fatalf("%s input %d, line %q: %d pairs, err %v", fact.Job, fact.InputIdx, line, pairs, err)
				}
				plainTask.Map(line, func(string, string) {})
			}
			if emitted == "" || filtered == "" {
				t.Fatalf("%s input %d: the scan no longer both selects and rejects", fact.Job, fact.InputIdx)
			}
			checked++
			allocs := func(m mapreduce.MapTask, line string) float64 {
				return testing.AllocsPerRun(200, func() { m.Map(line, func(string, string) {}) })
			}
			if got := allocs(optTask, filtered); got > 0 {
				t.Errorf("%s input %d: %v allocations per filtered line, budget 0", fact.Job, fact.InputIdx, got)
			}
			if got, want := allocs(optTask, emitted), allocs(plainTask, emitted); got > want {
				t.Errorf("%s input %d: %v allocations per emitted line, the unwrapped task %v", fact.Job, fact.InputIdx, got, want)
			}
		}
	}
	if checked < 2 {
		t.Errorf("checked %d early-filtered lineitem scans, want a single-stream and a shared one", checked)
	}
}

// TestAllocBudgetSPMapTask holds the SP job's map task, a selection and a
// projection over the scan, to its budget: once warmed by any line, a line
// the selection drops costs nothing, and neither does a line it keeps,
// whose output line is encoded into the task's scratch and emitted as a
// view of it, which the worker's Output copies.
func TestAllocBudgetSPMapTask(t *testing.T) {
	dfs, _ := workload(t)
	tr := translate(t, `SELECT l_orderkey, l_quantity * 2 AS q2 FROM lineitem WHERE l_quantity > 40`, YSmart, Options{QueryName: "sp"})
	if len(tr.Jobs) != 1 || tr.Jobs[0].Reducer != nil {
		t.Fatalf("%d jobs: the query no longer lowers to one map-only SP job", len(tr.Jobs))
	}
	in := tr.Jobs[0].Inputs[0]
	lines, err := dfs.Read(in.Path)
	if err != nil {
		t.Fatal(err)
	}
	task := in.Mapper.NewMapTask()
	var emitted, dropped string
	for _, line := range lines {
		pairs := 0
		if err := task.Map(line, func(string, string) { pairs++ }); err != nil {
			t.Fatal(err)
		}
		if got, want := mapLine(task, line), mapLine(in.Mapper.NewMapTask(), line); got != want {
			t.Fatalf("line %q: reused instance %s, fresh instance %s", line, got, want)
		}
		switch {
		case pairs == 1 && emitted == "":
			emitted = line
		case pairs == 0 && dropped == "":
			dropped = line
		}
	}
	if emitted == "" || dropped == "" {
		t.Fatal("the scan no longer both keeps and drops lines")
	}
	for _, c := range []struct {
		line   string
		budget float64
	}{{dropped, 0}, {emitted, 0}} {
		fresh := in.Mapper.NewMapTask()
		// AllocsPerRun's warm-up call is the task's first line.
		got := testing.AllocsPerRun(200, func() {
			if err := fresh.Map(c.line, func(string, string) {}); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.budget {
			t.Errorf("line %q: %v allocations, budget %v", c.line, got, c.budget)
		}
	}
}
