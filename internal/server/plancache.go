package server

import (
	"container/list"
	"fmt"
	"sync"

	"ysmart/internal/exec"
	"ysmart/internal/obs"
	"ysmart/internal/plan"
	"ysmart/internal/sqlparser"
	"ysmart/internal/translator"
)

// PlanCache memoizes the parse -> plan -> correlation-analysis -> translate
// pipeline keyed by normalized SQL (translator.NormalizeSQL) and mode. It is
// safe for concurrent use by many sessions.
//
// An entry holds the statement's one compiled *translator.Translation, and
// every Get of the statement returns it: a Translation is immutable once
// built (MANIMAL's rewrite runs before the entry is published; reducers hand
// each reduce task a private instance and report counts to the engine that
// ran them), so any number of sessions execute it at once.
//
// Eviction is LRU over whole entries; counters land in the registry as
// ysmart_server_plancache_{hits,misses,evictions}_total plus the
// ysmart_server_plancache_entries gauge.
type PlanCache struct {
	mode     translator.Mode
	cat      plan.Catalog
	cap      int
	reg      *obs.Registry
	optimize bool

	mu      sync.Mutex
	entries map[string]*list.Element // cache key -> lru element
	lru     *list.List               // front = most recently used
}

// cacheEntry is one cached statement. Nothing in it changes once it is in
// the cache.
type cacheEntry struct {
	key  string
	plan Plan // every Get hands out a copy with its own Hit
}

// NewPlanCache builds a cache holding at most capacity entries (capacity
// < 1 means 1) translating in the given mode against the catalog. The
// registry may be nil.
func NewPlanCache(capacity int, mode translator.Mode, cat plan.Catalog, reg *obs.Registry) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{
		mode:    mode,
		cat:     cat,
		cap:     capacity,
		reg:     reg,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// SetOptimize switches the cache to the MANIMAL pipeline: cache keys gain
// the optimizer dimension (translator.CacheKeyOpt, so optimized and plain
// plans of the same SQL never share an entry or a QueryTag-derived DFS
// path), and every translation gets the prefilters its scan facts prove
// sound before it is cached. Call it before the first Get; it is not safe to
// flip on a cache already serving sessions.
func (c *PlanCache) SetOptimize(on bool) { c.optimize = on }

// Plan is one statement's executable plan, shared with every other session
// running the statement: read it, never write it.
type Plan struct {
	// Translation is the compiled job chain.
	Translation *translator.Translation
	// Schema is the query's output schema.
	Schema *exec.Schema
	// Normalized is the canonical SQL text the plan was cached under.
	Normalized string
	// Hit reports whether the plan came from the cache.
	Hit bool
}

// Release does nothing: plans are shared, not leased. It exists only because
// the frozen bench/trace.go still calls it, and goes with the next
// benchmark PR.
func (p *Plan) Release() {}

// Get resolves sql to its plan, consulting the cache first. Errors are
// client errors (bad SQL) — the cache itself never fails.
func (c *PlanCache) Get(sql string) (*Plan, error) {
	// One lex per statement: the key is rendered from the tokens, and a miss
	// parses the same tokens.
	toks, err := sqlparser.Tokenize(sql)
	if err != nil {
		return nil, fmt.Errorf("normalize: %w", err)
	}
	key, norm, err := translator.TokensKey(toks, c.mode, c.optimize)
	if err != nil {
		return nil, fmt.Errorf("normalize: %w", err)
	}

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.reg.Add("ysmart_server_plancache_hits_total", 1)
		c.mu.Unlock()
		return el.Value.(*cacheEntry).get(true), nil
	}
	c.mu.Unlock()

	// Miss: run the whole pipeline outside the lock (parsing concurrent
	// queries must not serialize), then insert.
	e, err := c.build(toks, key, norm)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg.Add("ysmart_server_plancache_misses_total", 1)
	if el, ok := c.entries[key]; ok {
		// Another session built the same entry concurrently; the winner's
		// is the one every session shares.
		c.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).get(false), nil
	}
	c.entries[key] = c.lru.PushFront(e)
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*cacheEntry).key)
		c.reg.Add("ysmart_server_plancache_evictions_total", 1)
	}
	c.reg.Set("ysmart_server_plancache_entries", float64(c.lru.Len()))
	return e.get(false), nil
}

// get copies the entry's plan out for one caller.
func (e *cacheEntry) get(hit bool) *Plan {
	p := e.plan
	p.Hit = hit
	return &p
}

// build runs the full pipeline for a miss: parse, plan, analyze, lower and,
// under SetOptimize, the MANIMAL rewrite. The query tag keys the chain's DFS
// paths.
func (c *PlanCache) build(toks []sqlparser.Token, key, norm string) (*cacheEntry, error) {
	a, err := translator.AnalyzeTokens(toks, c.cat)
	if err != nil {
		return nil, err
	}
	tr, err := translator.TranslateAnalyzed(a, c.mode, translator.Options{QueryName: translator.QueryTag(key)})
	if err != nil {
		return nil, fmt.Errorf("translate: %w", err)
	}
	if c.optimize {
		translator.ApplyScanFacts(tr)
	}
	return &cacheEntry{key: key, plan: Plan{Translation: tr, Schema: a.Root().Schema(), Normalized: norm}}, nil
}

// Stats reports the cache's live entry count and lifetime counters.
func (c *PlanCache) Stats() (entries int, hits, misses, evictions float64) {
	c.mu.Lock()
	entries = c.lru.Len()
	c.mu.Unlock()
	return entries,
		c.reg.Value("ysmart_server_plancache_hits_total"),
		c.reg.Value("ysmart_server_plancache_misses_total"),
		c.reg.Value("ysmart_server_plancache_evictions_total")
}
