package difftest

import (
	"reflect"
	"slices"
	"testing"

	"ysmart"
	"ysmart/internal/mapreduce"
)

// manimalQueries are filtered scans where the optimizer provably installs
// a prefilter from the plan's scan facts. They are deliberately not part
// of queries.Named() so the golden files stay an analysis-off surface.
var manimalQueries = map[string]string{
	"M-LATESHIP":  "SELECT l_shipmode, count(*) AS ship_count FROM lineitem WHERE l_shipdate >= 9300 GROUP BY l_shipmode",
	"M-HIGHVALUE": "SELECT o_custkey, o_totalprice FROM orders WHERE o_totalprice > 30000",
}

// TestManimalByteIdentical is the ISSUE's differential acceptance proof:
// for each filtered query, result rows with the MANIMAL rewrites applied
// are byte-identical to the analysis-off run and to the DBMS oracle, at
// workers 1, 2 and 8, fault-free and under a seeded fault plan — while
// the scan counters prove the prefilter actually fired.
func TestManimalByteIdentical(t *testing.T) {
	for name, sql := range manimalQueries {
		t.Run(name, func(t *testing.T) {
			oracle, err := Oracle(sql, workload)
			if err != nil {
				t.Fatal(err)
			}
			for _, plan := range FaultPlans(7) {
				t.Run(PlanLabel(plan), func(t *testing.T) {
					base, err := Execute(compiled(t, name, sql, ysmart.YSmart, false), 1, plan, workload)
					if err != nil {
						t.Fatal(err)
					}
					if got := base.SortedLines(); !reflect.DeepEqual(got, oracle) {
						t.Fatalf("analysis-off rows diverge from oracle:\n got %v\nwant %v", got, oracle)
					}
					for _, workers := range []int{1, 2, 8} {
						opt, err := Execute(compiled(t, name, sql, ysmart.YSmart, true), workers, plan, workload)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.EqualFunc(opt.Rows, base.Rows, ysmart.Row.Identical) {
							t.Errorf("workers=%d: optimized rows differ from analysis-off rows", workers)
						}
						if got := opt.SortedLines(); !reflect.DeepEqual(got, oracle) {
							t.Errorf("workers=%d: optimized rows diverge from oracle", workers)
						}
						if n := filteredRecords(opt.Jobs); n == 0 {
							t.Errorf("workers=%d: MapRecordsFiltered = 0; the prefilter never fired", workers)
						}
					}
					if n := filteredRecords(base.Jobs); n != 0 {
						t.Errorf("analysis-off run filtered %d records; baseline must not prefilter", n)
					}
				})
			}
		})
	}
}

// filteredRecords sums the early-filter counter over a chain's jobs.
func filteredRecords(jobs []*mapreduce.JobStats) int64 {
	var n int64
	for _, j := range jobs {
		n += j.MapRecordsFiltered
	}
	return n
}
