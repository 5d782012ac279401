// Package handcoded contains the hand-optimized MapReduce programs an
// experienced programmer would write for the paper's workload — the
// "hand-coded" bars of Fig. 2(b) and Fig. 9. They differ from YSmart's
// generated jobs in the ways §VII.C describes:
//
//   - the reduce function is written against the query's semantics rather
//     than the plan tree, so it can take short-paths ("if JOIN1 has no
//     output, the sub-tree certainly has no output — return immediately");
//   - map output carries exactly the fields the reducer needs, with a
//     one-byte source marker instead of general stream tags.
package handcoded

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/queries"
	"ysmart/internal/translator"
)

// Program is a runnable hand-coded query implementation.
type Program struct {
	Jobs         []*mapreduce.Job
	Output       string
	OutputSchema *exec.Schema
}

// ReadResult decodes the program's result rows.
func (p *Program) ReadResult(dfs *mapreduce.DFS) ([]exec.Row, error) {
	lines, err := dfs.Read(p.Output)
	if err != nil {
		return nil, err
	}
	rows := make([]exec.Row, 0, len(lines))
	for _, line := range lines {
		row, err := exec.DecodeRow(line, p.OutputSchema)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func mustSchema(table string) *exec.Schema {
	s, ok := queries.Catalog().Table(table)
	if !ok {
		panic("handcoded: unknown table " + table)
	}
	return s
}

// ---------------------------------------------------------------------------
// Q-AGG: count clicks per category (one job, with a combiner — matching
// what any practitioner writes for wordcount-style aggregation).
// ---------------------------------------------------------------------------

// QAGG builds the hand-coded click-count program.
func QAGG(name string) *Program {
	clicks := mustSchema("clicks")
	out := "tmp/" + name + "/hand/result"
	job := &mapreduce.Job{
		Name: name + "-hand-j1",
		Inputs: []mapreduce.Input{{
			Path: translator.TablePath("clicks"),
			Mapper: mapreduce.MapperFunc(func(line string, emit mapreduce.Emit) error {
				row, err := exec.DecodeRow(line, clicks)
				if err != nil {
					return err
				}
				emit(strconv.FormatInt(row[2].I, 10), "1")
				return nil
			}),
		}},
		Combiner: mapreduce.CombinerFunc(func(_ string, values []string) (string, error) {
			n, err := sumInts(values)
			if err != nil {
				return "", err
			}
			return strconv.FormatInt(n, 10), nil
		}),
		Reducer: mapreduce.ReducerFunc(func(key string, values []string, emit func(string)) error {
			n, err := sumInts(values)
			if err != nil {
				return err
			}
			emit(key + "\t" + strconv.FormatInt(n, 10))
			return nil
		}),
		Output: out,
	}
	return &Program{
		Jobs:   []*mapreduce.Job{job},
		Output: out,
		OutputSchema: exec.NewSchema(
			exec.Column{Name: "cid", Type: exec.TypeInt},
			exec.Column{Name: "click_count", Type: exec.TypeInt},
		),
	}
}

func sumInts(values []string) (int64, error) {
	var n int64
	for _, v := range values {
		x, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, err
		}
		n += x
	}
	return n, nil
}

// ---------------------------------------------------------------------------
// Q-CSA: one job for everything up to AGG3, one job for the final average
// (the paper's hand-coded program uses "only a single job to execute all
// the operations except the final aggregation", §I).
// ---------------------------------------------------------------------------

// QCSA builds the hand-coded click-stream-analysis program.
func QCSA(name string) *Program {
	clicks := mustSchema("clicks")
	mid := "tmp/" + name + "/hand/j1"
	out := "tmp/" + name + "/hand/result"

	j1 := &mapreduce.Job{
		Name: name + "-hand-j1[JOIN1+AGG1+AGG2+JOIN2+AGG3]",
		Inputs: []mapreduce.Input{{
			Path: translator.TablePath("clicks"),
			Mapper: mapreduce.MapperFunc(func(line string, emit mapreduce.Emit) error {
				row, err := exec.DecodeRow(line, clicks)
				if err != nil {
					return err
				}
				// One compact pair per click: key uid, value "ts:cid".
				emit(strconv.FormatInt(row[0].I, 10),
					strconv.FormatInt(row[3].I, 10)+":"+strconv.FormatInt(row[2].I, 10))
				return nil
			}),
		}},
		Reducer: mapreduce.ReducerFunc(qcsaReduce),
		Output:  mid,
	}

	j2 := &mapreduce.Job{
		Name: name + "-hand-j2[AGG4]",
		Inputs: []mapreduce.Input{{
			Path: mid,
			Mapper: mapreduce.MapperFunc(func(line string, emit mapreduce.Emit) error {
				// j1 lines are "uid\tts1\tpageviews"; only the count matters.
				fields := strings.Split(line, "\t")
				emit("", fields[len(fields)-1])
				return nil
			}),
		}},
		Reducer: mapreduce.ReducerFunc(func(_ string, values []string, emit func(string)) error {
			var sum float64
			for _, v := range values {
				x, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return err
				}
				sum += x
			}
			if len(values) == 0 {
				emit(`\N`)
				return nil
			}
			emit(exec.EncodeField(exec.Float(sum / float64(len(values)))))
			return nil
		}),
		Output:         out,
		NumReduceTasks: 1,
	}

	return &Program{
		Jobs:   []*mapreduce.Job{j1, j2},
		Output: out,
		OutputSchema: exec.NewSchema(
			exec.Column{Name: "avg_pageviews", Type: exec.TypeFloat},
		),
	}
}

// qcsaReduce computes, for one user, the pageview counts between each
// category-1 page and the first category-2 page after it, exactly as the
// nested SQL of Fig. 1 specifies — but in one pass over the user's clicks.
func qcsaReduce(key string, values []string, emit func(string)) error {
	type click struct{ ts, cid int64 }
	clicks := make([]click, 0, len(values))
	for _, v := range values {
		sep := strings.IndexByte(v, ':')
		if sep < 0 {
			return fmt.Errorf("bad click value %q", v)
		}
		ts, err := strconv.ParseInt(v[:sep], 10, 64)
		if err != nil {
			return err
		}
		cid, err := strconv.ParseInt(v[sep+1:], 10, 64)
		if err != nil {
			return err
		}
		clicks = append(clicks, click{ts, cid})
	}
	sort.Slice(clicks, func(i, j int) bool { return clicks[i].ts < clicks[j].ts })

	// Short-path: a user with no category-1 or no category-2 page produces
	// nothing; skip all further work.
	var cat2 []int64
	any1 := false
	for _, c := range clicks {
		if c.cid == 1 {
			any1 = true
		}
		if c.cid == 2 {
			cat2 = append(cat2, c.ts)
		}
	}
	if !any1 || len(cat2) == 0 {
		return nil
	}

	// cp: ts1 -> min ts2 after it. mp: ts2 -> max ts1.
	maxTS1 := make(map[int64]int64)
	var ts2Order []int64
	for _, c := range clicks {
		if c.cid != 1 {
			continue
		}
		i := sort.Search(len(cat2), func(i int) bool { return cat2[i] > c.ts })
		if i == len(cat2) {
			continue
		}
		ts2 := cat2[i]
		if prev, ok := maxTS1[ts2]; !ok || c.ts > prev {
			if !ok {
				ts2Order = append(ts2Order, ts2)
			}
			maxTS1[ts2] = c.ts
		}
	}
	// Count pageviews within each [ts1, ts2] window.
	for _, ts2 := range ts2Order {
		ts1 := maxTS1[ts2]
		count := int64(0)
		for _, c := range clicks {
			if c.ts >= ts1 && c.ts <= ts2 {
				count++
			}
		}
		emit(key + "\t" + strconv.FormatInt(ts1, 10) + "\t" + strconv.FormatInt(count-2, 10))
	}
	return nil
}

// ---------------------------------------------------------------------------
// Q21 sub-tree: a single job whose reducer evaluates the whole Left Outer
// Join 1 sub-tree semantically, with the short-path of §VII.C case 4.
// ---------------------------------------------------------------------------

// Q21 builds the hand-coded program for the Left Outer Join 1 sub-tree.
func Q21(name string) *Program {
	lineitem := mustSchema("lineitem")
	orders := mustSchema("orders")
	out := "tmp/" + name + "/hand/result"

	job := &mapreduce.Job{
		Name: name + "-hand-j1[whole-subtree]",
		Inputs: []mapreduce.Input{
			{
				Path: translator.TablePath("lineitem"),
				Mapper: mapreduce.MapperFunc(func(line string, emit mapreduce.Emit) error {
					row, err := exec.DecodeRow(line, lineitem)
					if err != nil {
						return err
					}
					late := "0"
					if row[5].I > row[6].I { // l_receiptdate > l_commitdate
						late = "1"
					}
					// key l_orderkey, value "L<suppkey>:<late>".
					emit(strconv.FormatInt(row[0].I, 10),
						"L"+strconv.FormatInt(row[2].I, 10)+":"+late)
					return nil
				}),
			},
			{
				Path: translator.TablePath("orders"),
				Mapper: mapreduce.MapperFunc(func(line string, emit mapreduce.Emit) error {
					row, err := exec.DecodeRow(line, orders)
					if err != nil {
						return err
					}
					if row[2].S != "F" { // o_orderstatus = 'F' in the map phase
						return nil
					}
					emit(strconv.FormatInt(row[0].I, 10), "O")
					return nil
				}),
			},
		},
		Reducer: mapreduce.ReducerFunc(q21Reduce),
		Output:  out,
	}
	return &Program{
		Jobs:   []*mapreduce.Job{job},
		Output: out,
		OutputSchema: exec.NewSchema(
			exec.Column{Name: "l_suppkey", Type: exec.TypeInt},
		),
	}
}

// q21Reduce evaluates JOIN1, AGG1, JOIN2, AGG2 and the left outer join for
// one l_orderkey group.
func q21Reduce(_ string, values []string, emit func(string)) error {
	// Short-path (paper §VII.C case 4): if no order with status 'F'
	// reached this key, JOIN1 — and therefore the whole sub-tree — has no
	// output. Return before touching the lineitem values.
	hasOrder := false
	for _, v := range values {
		if v == "O" {
			hasOrder = true
			break
		}
	}
	if !hasOrder {
		return nil
	}

	var all, late []int64
	for _, v := range values {
		if v == "O" {
			continue
		}
		if !strings.HasPrefix(v, "L") {
			return fmt.Errorf("unexpected value %q", v)
		}
		sep := strings.IndexByte(v, ':')
		supp, err := strconv.ParseInt(v[1:sep], 10, 64)
		if err != nil {
			return err
		}
		all = append(all, supp)
		if v[sep+1:] == "1" {
			late = append(late, supp)
		}
	}
	if len(late) == 0 {
		return nil // sq1 (late lineitems joined with 'F' orders) is empty
	}

	// AGG1 over all lineitems: cs = count(distinct suppkey), ms = max.
	cs, ms := distinctAndMax(all)
	// AGG2 over late lineitems: the sq3 side of the outer join.
	cs3, ms3 := distinctAndMax(late)

	// sq1 rows are the late lineitems (each joined to the single 'F'
	// order); JOIN2 keeps those from multi-supplier orders; the outer join
	// side sq3 always exists here, so the final WHERE reduces to
	// cs3 = 1 AND suppkey = ms3.
	for _, supp := range late {
		if cs > 1 || (cs == 1 && supp != ms) {
			if cs3 == 1 && supp == ms3 {
				emit(strconv.FormatInt(supp, 10))
			}
		}
	}
	return nil
}

func distinctAndMax(supps []int64) (distinct int64, max int64) {
	seen := make(map[int64]bool, len(supps))
	for _, s := range supps {
		if !seen[s] {
			seen[s] = true
			distinct++
		}
		if s > max {
			max = s
		}
	}
	return distinct, max
}
