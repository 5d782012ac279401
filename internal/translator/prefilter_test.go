package translator

import (
	"strings"
	"testing"

	"ysmart/internal/mapreduce"
)

// TestPrefilterAgreesWithLazyDecode pins the lazy-decode contract where it
// matters most: a MANIMAL prefilter may drop a line only if the mapper
// would have produced nothing and no error for it, and both sides run the
// same demand-driven decoder, so they must agree on lines whose trouble
// sits in a column the plan never reads. Covered: a map-only
// selection-projection job, a single-stream scan feeding an aggregation,
// and a shared scan whose two streams both select.
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
		emits      bool   // the mapper emits a pair
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
	for qname, sql := range queries {
		tr := translate(t, sql, YSmart, Options{QueryName: "lazy"})
		checked := 0
		for _, fact := range tr.ScanFacts {
			if fact.Table != "lineitem" {
				continue
			}
			if fact.Prefilter == nil {
				t.Fatalf("%s: no prefilter for the lineitem scan: %s", qname, fact.Refusal)
			}
			var mapper mapreduce.Mapper
			for _, j := range tr.Jobs {
				if j.Name == fact.Job {
					mapper = j.Inputs[fact.InputIdx].Mapper
				}
			}
			if mapper == nil {
				t.Fatalf("%s: fact names unknown job %q", qname, fact.Job)
			}
			checked++
			for _, c := range cases {
				emitted := 0
				err := mapper.Map(c.line, func(string, string) { emitted++ })
				switch {
				case c.errHas != "":
					if err == nil || !strings.Contains(err.Error(), c.errHas) {
						t.Errorf("%s, %s: mapper err = %v, want one containing %q", qname, c.name, err, c.errHas)
					}
				case err != nil:
					t.Errorf("%s, %s: mapper failed: %v", qname, c.name, err)
				case (emitted > 0) != c.emits:
					t.Errorf("%s, %s: mapper emitted %d pairs, want emits=%v", qname, c.name, emitted, c.emits)
				}
				// The prefilter keeps exactly the lines the mapper has
				// something to say about: output or an error.
				if keep, want := fact.Prefilter(c.line), emitted > 0 || err != nil; keep != want {
					t.Errorf("%s, %s: prefilter keeps=%v, mapper emitted %d pairs with error %v", qname, c.name, keep, emitted, err)
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: no lineitem scan fact", qname)
		}
	}
}
