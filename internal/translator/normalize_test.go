package translator

import (
	"strings"
	"testing"

	"ysmart/internal/queries"
	"ysmart/internal/sqlparser"
)

func TestNormalizeSQLCollapsesEquivalentSpellings(t *testing.T) {
	base := "SELECT cid, count(*) AS click_count FROM clicks GROUP BY cid"
	variants := []string{
		"select cid, count(*) as click_count from clicks group by cid",
		"SELECT CID , COUNT ( * ) AS CLICK_COUNT\n\tFROM CLICKS\n\tGROUP BY CID",
		base + ";",
		base + " ; ;",
	}
	want, err := NormalizeSQL(base)
	if err != nil {
		t.Fatalf("normalize base: %v", err)
	}
	for _, v := range variants {
		got, err := NormalizeSQL(v)
		if err != nil {
			t.Fatalf("normalize %q: %v", v, err)
		}
		if got != want {
			t.Errorf("normalize %q = %q, want %q", v, got, want)
		}
	}
}

func TestNormalizeSQLKeepsDistinctQueriesDistinct(t *testing.T) {
	a, err := NormalizeSQL("SELECT cid FROM clicks")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NormalizeSQL("SELECT uid FROM clicks")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatalf("distinct queries normalized identically: %q", a)
	}
	// String literal case must survive: 'F' and 'f' are different values.
	a, _ = NormalizeSQL("SELECT * FROM orders WHERE o_orderstatus = 'F'")
	b, _ = NormalizeSQL("SELECT * FROM orders WHERE o_orderstatus = 'f'")
	if a == b {
		t.Fatal("string literal case was folded; literals must stay verbatim")
	}
}

func TestNormalizeSQLStringEscaping(t *testing.T) {
	norm, err := NormalizeSQL("SELECT * FROM orders WHERE o_comment = 'it''s late'")
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	if !strings.Contains(norm, "'it''s late'") {
		t.Fatalf("embedded quote not re-escaped: %q", norm)
	}
}

func TestNormalizeSQLErrors(t *testing.T) {
	for _, sql := range []string{"", "   ", ";;", "'unterminated"} {
		if _, err := NormalizeSQL(sql); err == nil {
			t.Errorf("NormalizeSQL(%q) succeeded, want error", sql)
		}
	}
}

func TestCacheKeyScopedByMode(t *testing.T) {
	sql := queries.QAGG
	kYSmart, err := CacheKeyOpt(sql, YSmart, false)
	if err != nil {
		t.Fatal(err)
	}
	kOneToOne, err := CacheKeyOpt(sql, OneToOne, false)
	if err != nil {
		t.Fatal(err)
	}
	if kYSmart == kOneToOne {
		t.Fatal("cache keys for different modes collide")
	}
	again, _ := CacheKeyOpt(strings.ToLower(sql)+" ;", YSmart, false)
	if again != kYSmart {
		t.Fatalf("equivalent spelling produced a different key:\n%q\n%q", again, kYSmart)
	}
}

func TestQueryTagStableAndDistinct(t *testing.T) {
	k1, _ := CacheKeyOpt(queries.QAGG, YSmart, false)
	k2, _ := CacheKeyOpt(queries.QCSA, YSmart, false)
	t1, t2 := QueryTag(k1), QueryTag(k2)
	if t1 != QueryTag(k1) {
		t.Fatal("QueryTag is not deterministic")
	}
	if t1 == t2 {
		t.Fatalf("tags collide for distinct keys: %s", t1)
	}
	if len(t1) != 13 || t1[0] != 'q' {
		t.Fatalf("tag %q is not in q<12 hex> form", t1)
	}
}

// TestNormalizeMatchesTokenJoin: the one-allocation renderer writes what
// joining each token's canonical spelling with spaces writes, and a cache key
// is that text behind its mode and optimizer scope.
func TestNormalizeMatchesTokenJoin(t *testing.T) {
	sqls := []string{
		"SeLeCt CiD, 'It''s', '', x != 1.50 FROM Clicks WHERE s = '''' ; ;",
		"select a_B from T_1 -- note\n/* block */ where b <= .5",
	}
	for _, sql := range queries.Named() {
		sqls = append(sqls, sql)
	}
	for _, sql := range sqls {
		toks, err := sqlparser.Tokenize(sql)
		if err != nil {
			t.Fatal(err)
		}
		var parts []string
		for _, tok := range toks {
			switch tok.Kind {
			case sqlparser.KindEOF:
			case sqlparser.KindIdent:
				parts = append(parts, strings.ToLower(tok.Text))
			case sqlparser.KindString:
				parts = append(parts, "'"+strings.ReplaceAll(tok.Text, "'", "''")+"'")
			default:
				parts = append(parts, tok.Text)
			}
		}
		for len(parts) > 0 && parts[len(parts)-1] == ";" {
			parts = parts[:len(parts)-1]
		}
		want := strings.Join(parts, " ")
		if got, err := NormalizeSQL(sql); err != nil || got != want {
			t.Errorf("NormalizeSQL(%q) = %q, %v; want %q", sql, got, err, want)
		}
		key, norm, err := TokensKey(toks, ICTCOnly, true)
		if err != nil || norm != want || key != "manimal\x00ic-tc-only\x00"+want {
			t.Errorf("TokensKey(%q) = %q, %q, %v; want the normalized text behind its scope", sql, key, norm, err)
		}
	}
}
