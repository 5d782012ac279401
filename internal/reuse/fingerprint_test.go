// Fingerprint property tests live in an external test package: they drive
// the fingerprints through the translator, which imports reuse.
package reuse_test

import (
	"reflect"
	"strings"
	"testing"

	"ysmart/internal/queries"
	"ysmart/internal/reuse"
	"ysmart/internal/translator"
)

// artifacts plans and translates sql, returning the per-job artifacts.
func artifacts(t *testing.T, sql, label string, mode translator.Mode) []translator.JobArtifact {
	t.Helper()
	root, err := queries.Plan(sql)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	tr, err := translator.Translate(root, mode, translator.Options{QueryName: label})
	if err != nil {
		t.Fatalf("translate %q: %v", sql, err)
	}
	arts := tr.Artifacts()
	if len(arts) != len(tr.Jobs) {
		t.Fatalf("%d artifacts for %d jobs", len(arts), len(tr.Jobs))
	}
	return arts
}

// fps projects the fingerprints of an artifact slice.
func fps(arts []translator.JobArtifact) []string {
	out := make([]string, len(arts))
	for i, a := range arts {
		out[i] = a.Fingerprint
	}
	return out
}

// rootFP is the fingerprint of the job producing the query result.
func rootFP(t *testing.T, sql string) string {
	t.Helper()
	root, err := queries.Plan(sql)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	tr, err := translator.Translate(root, translator.YSmart, translator.Options{QueryName: "fp"})
	if err != nil {
		t.Fatalf("translate %q: %v", sql, err)
	}
	arts := tr.Artifacts()
	for i, j := range tr.Jobs {
		if j.Output == tr.Output && i < len(arts) {
			return arts[i].Fingerprint
		}
	}
	t.Fatalf("no root artifact for %q", sql)
	return ""
}

// TestEquivalentSpellingsCollide: different spellings of the same query —
// keyword and identifier case, whitespace, != vs <> — must produce
// identical fingerprints for every job, or the store would never hit
// across clients that format SQL differently.
func TestEquivalentSpellingsCollide(t *testing.T) {
	groups := map[string][]string{
		"identifier-and-keyword-case": {
			"SELECT cid, count(*) AS click_count FROM clicks GROUP BY cid",
			"select CID, COUNT(*) as CLICK_COUNT from CLICKS group by CID",
		},
		"whitespace": {
			"SELECT uid, max(ts) AS last_ts FROM clicks GROUP BY uid",
			"SELECT   uid,\n\tmax( ts ) AS last_ts\nFROM clicks\nGROUP BY uid",
		},
		"not-equals-spelling": {
			"SELECT uid, ts FROM clicks WHERE cid <> 3",
			"SELECT uid, ts FROM clicks WHERE cid != 3",
		},
	}
	for name, group := range groups {
		t.Run(name, func(t *testing.T) {
			base := fps(artifacts(t, group[0], "spell-a", translator.YSmart))
			for _, sql := range group[1:] {
				got := fps(artifacts(t, sql, "spell-b", translator.YSmart))
				if !reflect.DeepEqual(got, base) {
					t.Errorf("spelling %q fingerprints %v, want %v", sql, got, base)
				}
			}
		})
	}
}

// TestNormalizedSQLCollides: for every workload query, the NormalizeSQL
// rendering — the plan cache's key discipline — must fingerprint exactly
// like the original text, tying the two canonicalization layers together.
func TestNormalizedSQLCollides(t *testing.T) {
	named := queries.Named()
	for name, sql := range named {
		t.Run(name, func(t *testing.T) {
			norm, err := translator.NormalizeSQL(sql)
			if err != nil {
				t.Fatalf("normalize: %v", err)
			}
			base := fps(artifacts(t, sql, "orig", translator.YSmart))
			got := fps(artifacts(t, norm, "norm", translator.YSmart))
			if !reflect.DeepEqual(got, base) {
				t.Errorf("normalized text fingerprints %v, want %v", got, base)
			}
		})
	}
}

// TestDistinctPlansDiverge: semantically different queries must never
// share a root fingerprint — a collision would silently serve one query's
// rows as another's. Every variation dimension that changes the answer is
// represented: constants, filters, keys, aggregates, output names, limits
// and tables.
func TestDistinctPlansDiverge(t *testing.T) {
	sqls := []string{
		"SELECT cid, count(*) AS n FROM clicks GROUP BY cid",
		"SELECT cid, count(*) AS m FROM clicks GROUP BY cid",                      // output name
		"SELECT cid, count(*) AS n FROM clicks WHERE uid > 5 GROUP BY cid",        // added filter
		"SELECT cid, count(*) AS n FROM clicks WHERE uid > 6 GROUP BY cid",        // constant
		"SELECT uid, count(*) AS n FROM clicks GROUP BY uid",                      // group key
		"SELECT cid, sum(ts) AS n FROM clicks GROUP BY cid",                       // aggregate
		"SELECT cid, count(*) AS n FROM clicks GROUP BY cid ORDER BY cid",         // sort
		"SELECT cid, count(*) AS n FROM clicks GROUP BY cid ORDER BY cid LIMIT 3", // limit
		"SELECT cid, count(*) AS n FROM clicks GROUP BY cid ORDER BY cid LIMIT 4", // limit value
		"SELECT o_custkey, count(*) AS n FROM orders GROUP BY o_custkey",          // table
	}
	seen := map[string]string{}
	for _, sql := range sqls {
		fp := rootFP(t, sql)
		if prev, dup := seen[fp]; dup {
			t.Errorf("fingerprint collision:\n  %s\n  %s", prev, sql)
		}
		seen[fp] = sql
	}
}

// TestQueryNameIndependent: the artifact must not see the query label (or
// the job/tmp paths derived from it) — cross-query reuse depends on
// structurally identical jobs fingerprinting identically regardless of
// which query generated them.
func TestQueryNameIndependent(t *testing.T) {
	named := queries.Named()
	for name, sql := range named {
		t.Run(name, func(t *testing.T) {
			a := artifacts(t, sql, "alpha", translator.YSmart)
			b := artifacts(t, sql, "beta", translator.YSmart)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("artifacts depend on the query label:\n%v\nvs\n%v", a, b)
			}
		})
	}
}

// FuzzCanonStability is the stability/collision property fuzzer: for any
// SQL the planner accepts, the canonical rendering is deterministic, the
// NormalizeSQL spelling canonicalizes identically, and fingerprints agree
// exactly when canonical renderings do.
func FuzzCanonStability(f *testing.F) {
	for _, sql := range queries.Named() {
		f.Add(sql)
	}
	f.Add("SELECT uid, ts FROM clicks WHERE cid != 3")
	f.Add("SELECT cid, count(*) AS n FROM clicks GROUP BY cid ORDER BY cid LIMIT 3")
	f.Add("SELECT l_shipmode, count(*) AS c FROM lineitem WHERE l_shipdate >= 9300 GROUP BY l_shipmode")
	f.Fuzz(func(t *testing.T, sql string) {
		root, err := queries.Plan(sql)
		if err != nil {
			t.Skip()
		}
		c1 := reuse.CanonPlan(root)
		root2, err := queries.Plan(sql)
		if err != nil {
			t.Fatalf("second plan of accepted SQL failed: %v", err)
		}
		if c2 := reuse.CanonPlan(root2); c2 != c1 {
			t.Fatalf("canonical rendering unstable:\n%s\nvs\n%s", c1, c2)
		}
		if reuse.Fingerprint(c1) != reuse.Fingerprint(c1) {
			t.Fatal("fingerprint of identical canonical text differs")
		}
		norm, err := translator.NormalizeSQL(sql)
		if err != nil {
			t.Skip()
		}
		rootN, err := queries.Plan(norm)
		if err != nil {
			// Normalization is token-based; if the planner rejects the
			// round trip there is nothing to compare.
			t.Skip()
		}
		cN := reuse.CanonPlan(rootN)
		sameCanon := cN == c1
		sameFP := reuse.Fingerprint(cN) == reuse.Fingerprint(c1)
		if sameCanon != sameFP {
			t.Fatalf("fingerprint disagrees with canonical equality (canon equal=%v, fp equal=%v)\ncanon A:\n%s\ncanon B:\n%s",
				sameCanon, sameFP, c1, cN)
		}
		if strings.TrimSpace(sql) == norm && !sameCanon {
			t.Fatalf("already-normal SQL canonicalized differently after round trip")
		}
	})
}
