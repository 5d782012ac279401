// Package queries defines the paper's workload: the schemas of the TPC-H
// subset and the click-stream table, and the SQL text of Q17, Q18, Q21 and
// Q-CSA (plus the simple Q-AGG used in Fig. 2(b)). The TPC-H queries are
// the flattened first-aggregation-then-join forms the paper evaluates
// (§VII.A.1); Q21 is the "Left Outer Join 1" subtree from the appendix,
// which dominates the full query and is what the paper measures (§VII.C).
//
// Two spellings differ from the paper listing: the derived tables of Q17
// are named inner_t/outer_t because INNER and OUTER are reserved words in
// standard SQL, and Q-CSA's category constants are the literals 1 and 2.
package queries

import (
	"fmt"

	"ysmart/internal/exec"
	"ysmart/internal/plan"
	"ysmart/internal/sqlparser"
)

// Catalog returns the table catalog for the workload. Dates are encoded as
// integer day numbers, which preserves comparisons without a date type.
func Catalog() plan.MapCatalog {
	return plan.MapCatalog{
		// The trailing columns (ship fields, clerk, comments) are never
		// touched by the workload queries; they exist so rows carry
		// TPC-H-realistic widths and map-side projection saves what it
		// saves on the real benchmark.
		"lineitem": exec.NewSchema(
			exec.Column{Name: "l_orderkey", Type: exec.TypeInt},
			exec.Column{Name: "l_partkey", Type: exec.TypeInt},
			exec.Column{Name: "l_suppkey", Type: exec.TypeInt},
			exec.Column{Name: "l_quantity", Type: exec.TypeFloat},
			exec.Column{Name: "l_extendedprice", Type: exec.TypeFloat},
			exec.Column{Name: "l_receiptdate", Type: exec.TypeInt},
			exec.Column{Name: "l_commitdate", Type: exec.TypeInt},
			exec.Column{Name: "l_shipdate", Type: exec.TypeInt},
			exec.Column{Name: "l_returnflag", Type: exec.TypeString},
			exec.Column{Name: "l_shipmode", Type: exec.TypeString},
			exec.Column{Name: "l_comment", Type: exec.TypeString},
		),
		"orders": exec.NewSchema(
			exec.Column{Name: "o_orderkey", Type: exec.TypeInt},
			exec.Column{Name: "o_custkey", Type: exec.TypeInt},
			exec.Column{Name: "o_orderstatus", Type: exec.TypeString},
			exec.Column{Name: "o_totalprice", Type: exec.TypeFloat},
			exec.Column{Name: "o_orderdate", Type: exec.TypeInt},
			exec.Column{Name: "o_clerk", Type: exec.TypeString},
			exec.Column{Name: "o_comment", Type: exec.TypeString},
		),
		"part": exec.NewSchema(
			exec.Column{Name: "p_partkey", Type: exec.TypeInt},
			exec.Column{Name: "p_name", Type: exec.TypeString},
		),
		"customer": exec.NewSchema(
			exec.Column{Name: "c_custkey", Type: exec.TypeInt},
			exec.Column{Name: "c_name", Type: exec.TypeString},
		),
		"supplier": exec.NewSchema(
			exec.Column{Name: "s_suppkey", Type: exec.TypeInt},
			exec.Column{Name: "s_name", Type: exec.TypeString},
			exec.Column{Name: "s_nationkey", Type: exec.TypeInt},
		),
		"nation": exec.NewSchema(
			exec.Column{Name: "n_nationkey", Type: exec.TypeInt},
			exec.Column{Name: "n_name", Type: exec.TypeString},
		),
		"clicks": exec.NewSchema(
			exec.Column{Name: "uid", Type: exec.TypeInt},
			exec.Column{Name: "page", Type: exec.TypeInt},
			exec.Column{Name: "cid", Type: exec.TypeInt},
			exec.Column{Name: "ts", Type: exec.TypeInt},
		),
	}
}

// QAGG counts clicks per category: the simple one-job aggregation of
// Fig. 2(b), where Hive's map-side hash aggregation makes it competitive
// with hand-coded MapReduce.
const QAGG = `SELECT cid, count(*) AS click_count FROM clicks GROUP BY cid`

// QCSA is the click-stream analysis query of Fig. 1: the average number of
// pages a user visits between a category-1 page and a category-2 page.
// Plan tree in Fig. 2(a): JOIN1, AGG1, AGG2, JOIN2, AGG3 (all with
// partition key uid) and the final global AGG4.
const QCSA = `
SELECT avg(pageview_count) AS avg_pageviews FROM
 (SELECT c.uid, mp.ts1, (count(*) - 2) AS pageview_count
  FROM clicks AS c,
   (SELECT uid, max(ts1) AS ts1, ts2
    FROM (SELECT c1.uid, c1.ts AS ts1, min(c2.ts) AS ts2
          FROM clicks AS c1, clicks AS c2
          WHERE c1.uid = c2.uid AND c1.ts < c2.ts
            AND c1.cid = 1 AND c2.cid = 2
          GROUP BY c1.uid, c1.ts) AS cp
    GROUP BY uid, ts2) AS mp
  WHERE c.uid = mp.uid AND c.ts >= mp.ts1 AND c.ts <= mp.ts2
  GROUP BY c.uid, mp.ts1) AS pageview_counts`

// Q17 is the paper's variation of TPC-H Q17 (Fig. 3): average yearly
// revenue lost by not filling small-quantity orders. Plan tree in Fig. 4:
// AGG1 (inner), JOIN1 (outer), JOIN2, and the final global aggregation.
const Q17 = `
SELECT sum(l_extendedprice) / 7.0 AS avg_yearly
FROM (SELECT l_partkey, 0.2 * avg(l_quantity) AS t1
      FROM lineitem
      GROUP BY l_partkey) AS inner_t,
     (SELECT l_partkey, l_quantity, l_extendedprice
      FROM lineitem, part
      WHERE p_partkey = l_partkey) AS outer_t
WHERE outer_t.l_partkey = inner_t.l_partkey
  AND outer_t.l_quantity < inner_t.t1`

// Q18 is flattened TPC-H Q18 (large-volume customers) in the
// first-aggregation-then-join form. Plan tree in Fig. 8(a): JOIN1
// (orders ⋈ lineitem), AGG1 (lineitem grouped by l_orderkey), JOIN2 —
// all with partition key l_orderkey — then JOIN3 with customer on
// c_custkey, AGG2, and the final SORT.
const Q18 = `
SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, t_sum_quantity
FROM customer,
     (SELECT sq1.o_orderkey AS o_orderkey, sq1.o_custkey AS o_custkey,
             sq1.o_orderdate AS o_orderdate, sq1.o_totalprice AS o_totalprice,
             sq2.t_sum_quantity AS t_sum_quantity
      FROM (SELECT o_orderkey, o_custkey, o_orderdate, o_totalprice, l_quantity
            FROM orders, lineitem
            WHERE o_orderkey = l_orderkey) AS sq1,
           (SELECT l_orderkey, sum(l_quantity) AS t_sum_quantity
            FROM lineitem
            GROUP BY l_orderkey) AS sq2
      WHERE sq1.o_orderkey = sq2.l_orderkey
        AND sq2.t_sum_quantity > 300) AS big
WHERE c_custkey = big.o_custkey
GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, t_sum_quantity
ORDER BY o_totalprice DESC, o_orderdate
LIMIT 100`

// Q21 is the "Left Outer Join 1" subtree of flattened TPC-H Q21 — the SQL
// of the paper's appendix, and the dominant part of the full query that
// §VII.C measures. Plan tree in Fig. 8(b): JOIN1 (lineitem ⋈ orders), AGG1,
// JOIN2, AGG2 and Left Outer Join 1, all with partition key l_orderkey.
const Q21 = `
SELECT sq12.l_suppkey FROM
 (SELECT sq1.l_orderkey, sq1.l_suppkey FROM
   (SELECT l_suppkey, l_orderkey
    FROM lineitem, orders
    WHERE o_orderkey = l_orderkey
      AND l_receiptdate > l_commitdate
      AND o_orderstatus = 'F') AS sq1,
   (SELECT l_orderkey,
           count(distinct l_suppkey) AS cs,
           max(l_suppkey) AS ms
    FROM lineitem
    GROUP BY l_orderkey) AS sq2
  WHERE sq1.l_orderkey = sq2.l_orderkey
    AND ((sq2.cs > 1) OR ((sq2.cs = 1) AND (sq1.l_suppkey <> sq2.ms)))
 ) AS sq12
 LEFT OUTER JOIN
 (SELECT l_orderkey,
         count(distinct l_suppkey) AS cs,
         max(l_suppkey) AS ms
  FROM lineitem
  WHERE l_receiptdate > l_commitdate
  GROUP BY l_orderkey) AS sq3
 ON sq12.l_orderkey = sq3.l_orderkey
WHERE (sq3.cs IS NULL) OR ((sq3.cs = 1) AND (sq12.l_suppkey = sq3.ms))`

// Q21Full is the complete flattened TPC-H Q21 (suppliers who kept orders
// waiting) whose plan is the paper's Fig. 8(b): the Left Outer Join 1
// sub-tree (= Q21 above), then joins with supplier and nation, the
// numwait aggregation, and the final sort. The paper measures only the
// sub-tree ("the dominated part", §VII.C); the full query is included as
// an extension exercising a 9-operation plan.
const Q21Full = `
SELECT s_name, count(*) AS numwait
FROM nation,
     supplier,
     (SELECT sq12.l_suppkey FROM
       (SELECT sq1.l_orderkey, sq1.l_suppkey FROM
         (SELECT l_suppkey, l_orderkey
          FROM lineitem, orders
          WHERE o_orderkey = l_orderkey
            AND l_receiptdate > l_commitdate
            AND o_orderstatus = 'F') AS sq1,
         (SELECT l_orderkey,
                 count(distinct l_suppkey) AS cs,
                 max(l_suppkey) AS ms
          FROM lineitem
          GROUP BY l_orderkey) AS sq2
        WHERE sq1.l_orderkey = sq2.l_orderkey
          AND ((sq2.cs > 1) OR ((sq2.cs = 1) AND (sq1.l_suppkey <> sq2.ms)))
       ) AS sq12
       LEFT OUTER JOIN
       (SELECT l_orderkey,
               count(distinct l_suppkey) AS cs,
               max(l_suppkey) AS ms
        FROM lineitem
        WHERE l_receiptdate > l_commitdate
        GROUP BY l_orderkey) AS sq3
       ON sq12.l_orderkey = sq3.l_orderkey
      WHERE (sq3.cs IS NULL) OR ((sq3.cs = 1) AND (sq12.l_suppkey = sq3.ms))
     ) AS viol
WHERE s_suppkey = viol.l_suppkey
  AND s_nationkey = n_nationkey
  AND n_name = 'NATION07'
GROUP BY s_name
ORDER BY numwait DESC, s_name
LIMIT 100`

// Q18Orig is TPC-H Q18 in its original nested form, with the IN subquery
// the paper had to flatten by hand before Hive could run it (§VII.A.1:
// "these queries have to be flattened"). This repository's planner
// flattens it automatically into a semi-join, so the nested form runs
// directly and must return exactly the rows of the flattened Q18.
const Q18Orig = `
SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice,
       sum(l_quantity) AS t_sum_quantity
FROM customer, orders, lineitem
WHERE o_orderkey IN (SELECT l_orderkey
                     FROM lineitem
                     GROUP BY l_orderkey
                     HAVING sum(l_quantity) > 300)
  AND c_custkey = o_custkey
  AND o_orderkey = l_orderkey
GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
ORDER BY o_totalprice DESC, o_orderdate
LIMIT 100`

// Named returns the workload queries by their paper names.
func Named() map[string]string {
	return map[string]string{
		"Q17":      Q17,
		"Q18":      Q18,
		"Q18-orig": Q18Orig,
		"Q21":      Q21,
		"Q21-full": Q21Full,
		"Q-CSA":    QCSA,
		"Q-AGG":    QAGG,
	}
}

// Plan parses sql and builds its logical plan against the workload catalog.
func Plan(sql string) (plan.Node, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	root, err := plan.Build(stmt, Catalog())
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	return root, nil
}
