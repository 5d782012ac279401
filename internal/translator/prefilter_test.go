package translator

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ysmart/internal/mapreduce"
)

// TestPrefilterAgreesWithLazyDecode pins the MANIMAL early filter to the
// lazy-decode contract: the optimized mapper reports a line as
// mapreduce.ErrFiltered exactly when the plain mapper produces nothing and
// no error for it, and otherwise passes the plain mapper's pairs and error
// through — including on lines whose trouble sits in a column the plan
// never reads. Covered: a map-only selection-projection job, a
// single-stream scan feeding an aggregation, and a shared scan whose two
// streams both select; each through a fresh instance per line and
// through one instance fed every line in turn.
func TestPrefilterAgreesWithLazyDecode(t *testing.T) {
	// lineitem fields: l_orderkey l_partkey l_suppkey l_quantity
	// l_extendedprice l_receiptdate l_commitdate l_shipdate l_returnflag
	// l_shipmode l_comment. Every query below reads l_orderkey and
	// l_quantity and selects on l_quantity > 40; l_extendedprice (a float)
	// is never read.
	line := func(quantity, price string) string {
		return "7\t11\t3\t" + quantity + "\t" + price + "\t100\t90\t80\tN\tAIR\tquick deposits"
	}
	queries := map[string]string{
		"selection-projection": `SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity > 40`,
		"simple scan":          `SELECT l_orderkey, count(*) AS n FROM lineitem WHERE l_quantity > 40 GROUP BY l_orderkey`,
		"shared scan": `SELECT a.l_orderkey, a.l_quantity, b.l_quantity FROM lineitem a, lineitem b
			WHERE a.l_orderkey = b.l_orderkey AND a.l_quantity > 40 AND b.l_quantity > 45`,
	}
	cases := []struct {
		name, line string
		emits      bool   // the plain mapper emits a pair
		errHas     string // or fails with an error containing this
	}{
		{"selected", line("48.0", "900.5"), true, ""},
		{"rejected", line("2.0", "900.5"), false, ""},
		{"selected, malformed undemanded column", line("48.0", "n/a"), true, ""},
		{"rejected, malformed undemanded column", line("2.0", "n/a"), false, ""},
		{"malformed demanded column", line("lots", "900.5"), false, "l_quantity"},
		{"short line", "7\t11\t3\t48.0", false, "fields"},
		{"long line", line("2.0", "900.5") + "\textra", false, "fields"},
	}
	// mapOne runs one line on a map instance and collects its pairs.
	mapOne := func(m mapreduce.MapTask, line string) ([]string, error) {
		var pairs []string
		err := m.Map(line, func(k, v string) { pairs = append(pairs, k+"|"+v) })
		return pairs, err
	}
	mapperOf := func(tr *Translation, fact ScanFact) mapreduce.Mapper {
		for _, j := range tr.Jobs {
			if j.Name == fact.Job {
				return j.Inputs[fact.InputIdx].Mapper
			}
		}
		t.Fatalf("fact names unknown job %q", fact.Job)
		return nil
	}
	for qname, sql := range queries {
		plain := translate(t, sql, YSmart, Options{QueryName: "lazy"})
		opt := translate(t, sql, YSmart, Options{QueryName: "lazy"})
		applied, _ := ApplyScanFacts(opt)
		checked := 0
		for _, fact := range applied {
			if fact.Table != "lineitem" {
				continue
			}
			checked++
			plainMapper := mapperOf(plain, fact)
			f := mapperOf(opt, fact)
			task := f.NewMapTask()
			for _, c := range cases {
				want, wantErr := mapOne(plainMapper.NewMapTask(), c.line)
				switch {
				case c.errHas != "":
					if wantErr == nil || !strings.Contains(wantErr.Error(), c.errHas) {
						t.Errorf("%s, %s: mapper err = %v, want one containing %q", qname, c.name, wantErr, c.errHas)
					}
				case wantErr != nil:
					t.Errorf("%s, %s: mapper failed: %v", qname, c.name, wantErr)
				case (len(want) > 0) != c.emits:
					t.Errorf("%s, %s: mapper emitted %d pairs, want emits=%v", qname, c.name, len(want), c.emits)
				}
				if wantErr == nil && len(want) == 0 {
					wantErr = mapreduce.ErrFiltered
				}
				for entry, m := range map[string]mapreduce.MapTask{"fresh": f.NewMapTask(), "reused": task} {
					got, err := mapOne(m, c.line)
					if !reflect.DeepEqual(got, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Errorf("%s, %s, %s: optimized mapper gave %q, %v; want %q, %v", qname, c.name, entry, got, err, want, wantErr)
					}
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: no early filter applied to a lineitem scan", qname)
		}
	}
}
