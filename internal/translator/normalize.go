package translator

import (
	"fmt"
	"hash/fnv"

	"ysmart/internal/sqlparser"
)

// NormalizeSQL renders sql in a canonical single-line form suitable as a
// plan-cache key: comments dropped, whitespace collapsed to single spaces,
// keywords upper-cased, identifiers lower-cased (the planner resolves
// tables, columns and aliases case-insensitively, so spellings that differ
// only in identifier case are the same query), string literals re-quoted
// with ” escaping, != folded to <>, and trailing semicolons removed. Two
// SQL texts normalize to the same string exactly when they tokenize to the
// same token stream, so a cache keyed on the result can never alias two
// semantically different queries.
//
// The input is only lexed, not parsed: a string that normalizes cleanly may
// still fail to parse, and the cache-miss path reports that error.
func NormalizeSQL(sql string) (string, error) {
	toks, err := sqlparser.Tokenize(sql)
	if err != nil {
		return "", err
	}
	return sqlparser.Canonical(toks)
}

// CacheKey builds the plan-cache key of a query: its normalized SQL scoped
// by translation mode, so one cache can serve servers running in different
// modes without mixing their job chains.
func CacheKey(sql string, mode Mode) (string, error) {
	return CacheKeyOpt(sql, mode, false)
}

// CacheKeyOpt builds the plan-cache key of a query with the optimizer
// dimension folded in: translations carrying the MANIMAL rewrites must
// never share a cache entry (or a QueryTag-derived DFS prefix) with
// plain translations of the same SQL.
func CacheKeyOpt(sql string, mode Mode, optimize bool) (string, error) {
	toks, err := sqlparser.Tokenize(sql)
	if err != nil {
		return "", err
	}
	key, _, err := TokensKey(toks, mode, optimize)
	return key, err
}

// TokensKey is CacheKeyOpt over a statement already lexed by
// sqlparser.Tokenize, so a caller that parses the statement on a miss lexes
// it once. normalized is NormalizeSQL's text, a suffix of key.
func TokensKey(toks []sqlparser.Token, mode Mode, optimize bool) (key, normalized string, err error) {
	opt := ""
	if optimize {
		opt = "manimal\x00"
	}
	m := mode.String()
	key, err = sqlparser.Canonical(toks, opt, m, "\x00")
	if err != nil {
		return "", "", err
	}
	return key, key[len(opt)+len(m)+1:], nil
}

// QueryTag derives a short stable job/DFS label from a cache key, so every
// cached plan writes its intermediate and final outputs under a distinct
// deterministic path prefix no matter which session replays it.
func QueryTag(key string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return fmt.Sprintf("q%012x", h.Sum64()&0xffffffffffff)
}
