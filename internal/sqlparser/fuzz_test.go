package sqlparser

import (
	"strings"
	"testing"
)

// FuzzParse asserts the lexer and parser are total: any input either parses
// or returns an error — it never panics — and anything that parses
// round-trips through SQL() to an equivalent statement. Every word and string
// literal the lexer returns must also match the reference reading of its
// source text (checkToken).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT a FROM t",
		"SELECT a, count(*) FROM t WHERE x = 1 GROUP BY a HAVING count(*) > 2",
		"SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.x WHERE b.y IS NULL",
		"SELECT avg(v) FROM (SELECT v FROM t WHERE v BETWEEN 1 AND 2) AS s",
		"SELECT x FROM t WHERE x IN (SELECT y FROM u) ORDER BY x DESC LIMIT 3",
		"SELECT CASE WHEN a THEN 'x' ELSE 'y' END FROM t",
		"select '' from t where a <> -1.5e2",
		"SELECT a FROM t -- comment\n/* block */",
		"SELECT 'it''s' FROM t;",
		"\x00\xff SELECT",
		strings.Repeat("(", 50) + "a" + strings.Repeat(")", 50),
		"SeLeCt _a, a_B, Distinct_, distinctx FROM t_1 wHeRe x iS nUlL",
		"SELECT " + strings.Repeat("Ab_", 12) + " FROM " + strings.Repeat("SELECT", 6) + "x",
		"SELECT 'it''s', '''', '' FROM t WHERE a = 'x''''y'",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		if toks, err := Tokenize(sql); err == nil {
			for _, tok := range toks {
				checkToken(t, sql, tok)
			}
		}
		stmt, err := Parse(sql)
		if err != nil {
			return // rejecting is always acceptable
		}
		// Accepted statements must render and re-parse to the same shape.
		rendered := stmt.SQL()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("rendered SQL does not re-parse: %q -> %q: %v", sql, rendered, err)
		}
		if again.SQL() != rendered {
			t.Fatalf("round trip unstable:\n first: %s\nsecond: %s", rendered, again.SQL())
		}
	})
}

// checkToken compares a word or string-literal token with the reference
// reading of the source text at its position: a word is a keyword exactly
// when strings.ToUpper of it IsKeyword, and then carries that upper-cased
// text; otherwise it is an identifier spelled as in the source. A string
// literal's text is its body with every doubled quote read as one.
func checkToken(t *testing.T, sql string, tok Token) {
	t.Helper()
	switch tok.Kind {
	case KindKeyword, KindIdent:
		end := tok.Pos
		for end < len(sql) && (isLetter(sql[end]) || isDigit(sql[end])) {
			end++
		}
		word := sql[tok.Pos:end]
		upper := strings.ToUpper(word)
		wantKind, wantText := KindIdent, word
		if IsKeyword(upper) {
			wantKind, wantText = KindKeyword, upper
		}
		if tok.Kind != wantKind || tok.Text != wantText {
			t.Fatalf("word %q at %d lexed as %v %q, want %v %q", word, tok.Pos, tok.Kind, tok.Text, wantKind, wantText)
		}
	case KindString:
		var sb strings.Builder
		for i := tok.Pos + 1; i < len(sql); i++ {
			if sql[i] != '\'' {
				sb.WriteByte(sql[i])
				continue
			}
			if i+1 < len(sql) && sql[i+1] == '\'' {
				sb.WriteByte('\'')
				i++
				continue
			}
			break
		}
		if tok.Text != sb.String() {
			t.Fatalf("string literal at %d lexed as %q, want %q", tok.Pos, tok.Text, sb.String())
		}
	}
}
