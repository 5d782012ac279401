package server

import (
	"strings"
	"sync"
	"testing"

	"ysmart/internal/obs"
	"ysmart/internal/queries"
	"ysmart/internal/translator"
)

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

func newTestCache(capacity int, reg *obs.Registry) *PlanCache {
	return NewPlanCache(capacity, translator.YSmart, queries.Catalog(), reg)
}

func TestPlanCacheHitOnNormalizedVariants(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCache(8, reg)

	p1, err := c.Get(queries.QAGG)
	if err != nil {
		t.Fatalf("first get: %v", err)
	}
	if p1.Hit {
		t.Fatal("first get reported a hit on an empty cache")
	}

	// Same query, different whitespace, identifier case and a trailing
	// semicolon: must normalize to the same cache entry.
	variant := strings.ToUpper(strings.Join(strings.Fields(queries.QAGG), "  ")) + " ;"
	p2, err := c.Get(variant)
	if err != nil {
		t.Fatalf("variant get: %v", err)
	}
	if !p2.Hit {
		t.Fatalf("variant %q missed the cache", variant)
	}
	if p2.Normalized != p1.Normalized {
		t.Fatalf("normalized forms differ: %q vs %q", p2.Normalized, p1.Normalized)
	}

	entries, hits, misses, evictions := c.Stats()
	if entries != 1 || hits != 1 || misses != 1 || evictions != 0 {
		t.Fatalf("stats = entries %d, hits %v, misses %v, evictions %v; want 1, 1, 1, 0",
			entries, hits, misses, evictions)
	}
}

func TestPlanCacheRejectsBadSQL(t *testing.T) {
	c := newTestCache(4, nil)
	if _, err := c.Get("   "); err == nil {
		t.Fatal("empty statement did not error")
	}
	if _, err := c.Get("SELECT FROM WHERE"); err == nil {
		t.Fatal("unparsable statement did not error")
	}
	if entries, _, _, _ := c.Stats(); entries != 0 {
		t.Fatalf("failed gets left %d entries in the cache", entries)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCache(2, reg)
	q := queries.Named()

	// Q-AGG is touched again so Q-CSA is the LRU victim when Q17 arrives.
	for _, name := range []string{"Q-AGG", "Q-CSA", "Q-AGG", "Q17"} {
		if _, err := c.Get(q[name]); err != nil {
			t.Fatalf("get %s: %v", name, err)
		}
	}

	entries, _, _, evictions := c.Stats()
	if entries != 2 || evictions != 1 {
		t.Fatalf("after overflow: entries %d evictions %v, want 2 and 1", entries, evictions)
	}
	p, err := c.Get(q["Q-AGG"])
	if err != nil {
		t.Fatalf("re-get Q-AGG: %v", err)
	}
	if !p.Hit {
		t.Fatal("recently touched Q-AGG was evicted; LRU order is wrong")
	}
	p, err = c.Get(q["Q-CSA"])
	if err != nil {
		t.Fatalf("re-get Q-CSA: %v", err)
	}
	if p.Hit {
		t.Fatal("Q-CSA should have been the eviction victim")
	}
}

// TestPlanCacheLeasing pins what replaced the lease: there is none. Every
// Get of a statement — concurrent first lookups that each build it included —
// returns the entry's one translation, and the registry has no
// retranslations family for a re-lowered copy to be counted in.
func TestPlanCacheLeasing(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCache(4, reg)

	const gets = 8
	plans := make([]*Plan, gets)
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.Get(queries.QAGG)
			if err != nil {
				t.Errorf("get %d: %v", i, err)
			}
			plans[i] = p
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	later, err := c.Get(queries.QAGG)
	if err != nil {
		t.Fatalf("later get: %v", err)
	}
	if !later.Hit {
		t.Fatal("get after the entry was built missed")
	}
	for i, p := range plans {
		if p.Translation != later.Translation {
			t.Fatalf("get %d returned its own translation; every session must share the entry's", i)
		}
	}
	entries, hits, misses, _ := c.Stats()
	if entries != 1 || misses < 1 || hits+misses != gets+1 {
		t.Fatalf("stats = entries %d, hits %v, misses %v; want 1 entry and %d lookups", entries, hits, misses, gets+1)
	}
	for _, m := range reg.Snapshot() {
		if strings.Contains(m.Name, "retranslations") {
			t.Fatalf("registry still exports %s", m.Name)
		}
	}
}

// TestPlanCacheConcurrent hammers one cache from many goroutines (run under
// -race) and checks the counters balance.
func TestPlanCacheConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCache(8, reg)
	q := queries.Named()
	sqls := []string{q["Q-AGG"], q["Q-CSA"], q["Q17"]}

	const goroutines = 8
	const perG = 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := c.Get(sqls[(g+i)%len(sqls)]); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	entries, hits, misses, _ := c.Stats()
	if entries != len(sqls) {
		t.Fatalf("entries = %d, want %d", entries, len(sqls))
	}
	if hits+misses != goroutines*perG {
		t.Fatalf("hits (%v) + misses (%v) != %d lookups", hits, misses, goroutines*perG)
	}
}

// TestPlanCacheManimalKeying is the optimizer-dimension correctness proof:
// a cache serving MANIMAL-optimized plans and one serving plain plans must
// never alias — different cache keys, different QueryTag-derived DFS
// prefixes, no shared translation — and both must stay
// byte-identical to the DBMS oracle. Without CacheKeyOpt the two
// configurations would collide on normalized SQL and an optimized chain
// could leak into a session that asked for plain execution (or write over
// the plain chain's deterministic DFS paths).
func TestPlanCacheManimalKeying(t *testing.T) {
	sql := "SELECT l_shipmode, count(*) AS ship_count FROM lineitem WHERE l_shipdate >= 9300 GROUP BY l_shipmode"

	plainKey, err := translator.CacheKeyOpt(sql, translator.YSmart, false)
	if err != nil {
		t.Fatal(err)
	}
	optKey, err := translator.CacheKeyOpt(sql, translator.YSmart, true)
	if err != nil {
		t.Fatal(err)
	}
	if plainKey == optKey {
		t.Fatal("optimized and plain cache keys are identical")
	}

	plain := newTestCache(4, nil)
	opt := newTestCache(4, nil)
	opt.SetOptimize(true)

	pp, err := plain.Get(sql)
	if err != nil {
		t.Fatal(err)
	}
	po, err := opt.Get(sql)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Translation == po.Translation {
		t.Fatal("optimized and plain plans share one translation")
	}
	if pp.Translation.Output == po.Translation.Output {
		t.Fatalf("optimized and plain chains share the DFS output path %s", pp.Translation.Output)
	}
	// The optimized plan filters early; the plain one never does.
	plainLines, plainFiltered := runPlanFiltered(t, pp)
	optLines, optFiltered := runPlanFiltered(t, po)
	if optFiltered == 0 {
		t.Fatal("optimized plan of a filtered scan filtered no line early")
	}
	if plainFiltered != 0 {
		t.Fatalf("plain plan filtered %d lines early", plainFiltered)
	}
	want := oracleLines(t, sql)
	diffLines(t, "plain vs oracle", plainLines, want)
	diffLines(t, "manimal vs oracle", optLines, want)

	// A hit hands out the same optimized plan, and running it left its
	// early filters in place.
	po2, err := opt.Get(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !po2.Hit || po2.Translation != po.Translation {
		t.Fatal("second optimized get did not return the cached plan")
	}
	rerunLines, rerunFiltered := runPlanFiltered(t, po2)
	if rerunFiltered != optFiltered {
		t.Fatalf("the optimized rerun filtered %d lines early, the first run %d", rerunFiltered, optFiltered)
	}
	diffLines(t, "manimal rerun vs oracle", rerunLines, want)
}

// TestPlanCacheResultsByteIdentical is the cache's correctness oracle: the
// plan a miss built and the plan a hit returned are one translation, every
// run of it — the first and each rerun — produces byte-identical sorted
// results, and those match the single-node DBMS executor.
func TestPlanCacheResultsByteIdentical(t *testing.T) {
	q := queries.Named()
	for _, name := range []string{"Q-AGG", "Q-CSA"} {
		sql := q[name]
		c := newTestCache(4, nil)

		miss, err := c.Get(sql)
		if err != nil {
			t.Fatalf("%s miss get: %v", name, err)
		}
		hit, err := c.Get(sql)
		if err != nil {
			t.Fatalf("%s hit get: %v", name, err)
		}
		if miss.Hit || !hit.Hit || hit.Translation != miss.Translation {
			t.Fatalf("%s: miss then hit must share one translation (hit flags %v, %v)", name, miss.Hit, hit.Hit)
		}
		want := oracleLines(t, sql)
		diffLines(t, name+" first run vs oracle", runPlan(t, miss), want)
		diffLines(t, name+" rerun vs oracle", runPlan(t, hit), want)
	}
}

// TestAllocBudgetPlanMiss pins what a cache miss allocates for each of the
// seven workload query shapes, the templates of the plan_cold benchmark: one
// lex, one parse of the same tokens, the plan, the correlation analysis with
// each aggregation's key components built once, and the lowering — and no
// fingerprinting, which waits for a reuse lookup. The budgets are the
// measured counts plus 2 % for map growth, which varies with the hash seed
// by an allocation or two.
func TestAllocBudgetPlanMiss(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	budget := map[string]float64{ // measured: 190, 1116, 706, 1080, 898, 1132, 1700
		"Q-AGG": 194, "Q-CSA": 1138, "Q17": 720, "Q18": 1102,
		"Q18-orig": 916, "Q21": 1155, "Q21-full": 1734,
	}
	for name, sql := range queries.Named() {
		const runs = 10
		caches := make([]*PlanCache, runs+1) // AllocsPerRun adds a warm-up call
		for i := range caches {
			caches[i] = newTestCache(4, nil)
		}
		next := 0
		got := testing.AllocsPerRun(runs, func() {
			p, err := caches[next].Get(sql)
			if err != nil || p.Hit {
				t.Fatalf("%s: get %v, hit %v; want a miss", name, err, p != nil && p.Hit)
			}
			next++
		})
		if want, ok := budget[name]; !ok || got > want {
			t.Errorf("%s: a plan-cache miss costs %v allocations, budget %v", name, got, want)
		}
	}
}

// TestAllocBudgetPlanHit: a hit only normalizes — the token slice, the key
// string and the caller's copy of the plan, whatever the statement's size.
func TestAllocBudgetPlanHit(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	c := newTestCache(8, nil)
	for name, sql := range queries.Named() {
		if _, err := c.Get(sql); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(20, func() {
			if p, err := c.Get(sql); err != nil || !p.Hit {
				t.Fatalf("%s: get %v; want a hit", name, err)
			}
		})
		if got > 3 {
			t.Errorf("%s: a plan-cache hit costs %v allocations, budget 3", name, got)
		}
	}
}
