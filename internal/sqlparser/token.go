// Package sqlparser implements a lexer, AST, and recursive-descent parser
// for the SQL subset targeted by YSmart (ICDCS 2011, §IV): selection,
// projection, aggregation with grouping, sorting, and equi-joins (inner and
// left/right/full outer), including derived tables (sub-queries in FROM)
// and implicit comma joins whose join predicates live in WHERE.
package sqlparser

import (
	"fmt"
	"strings"
)

// TokenKind identifies the lexical class of a token.
type TokenKind int

// Token kinds. Keywords are folded into KindKeyword with the upper-cased
// keyword text stored in Token.Text.
const (
	KindEOF TokenKind = iota + 1
	KindIdent
	KindKeyword
	KindNumber
	KindString
	KindSymbol
)

func (k TokenKind) String() string {
	switch k {
	case KindEOF:
		return "EOF"
	case KindIdent:
		return "identifier"
	case KindKeyword:
		return "keyword"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	case KindSymbol:
		return "symbol"
	default:
		return fmt.Sprintf("TokenKind(%d)", int(k))
	}
}

// Token is a single lexical token with its position in the input.
type Token struct {
	Kind TokenKind
	// Text is the token text. Keywords are upper-cased; identifiers and
	// symbols keep their source spelling; strings exclude their quotes.
	Text string
	// Pos is the byte offset of the token's first character.
	Pos int
	// Line and Col are 1-based coordinates of the token start.
	Line, Col int
}

func (t Token) String() string {
	if t.Kind == KindEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.Text)
}

// keywords is the set of reserved words recognized by the lexer, each mapped
// to itself so a token can carry the map's copy of its text. Everything else
// alphanumeric is an identifier. Aggregate function names (COUNT, SUM, AVG,
// MIN, MAX) are deliberately NOT keywords: they are ordinary identifiers
// followed by '(' so that they can also be used as column names.
var keywords = func() map[string]string {
	m := make(map[string]string)
	for _, kw := range []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
		"AS", "AND", "OR", "NOT", "JOIN", "INNER", "LEFT", "RIGHT",
		"FULL", "OUTER", "ON", "CROSS", "ASC", "DESC", "DISTINCT", "ALL",
		"IS", "NULL", "BETWEEN", "IN", "TRUE", "FALSE", "CASE", "WHEN",
		"THEN", "ELSE", "END", "UNION",
	} {
		m[kw] = kw
	}
	return m
}()

// maxKeywordLen is at least the longest keyword's length (a test holds it
// there), so the lexer can upper-case a word on the stack and call anything
// longer an identifier unseen.
const maxKeywordLen = 16

// IsKeyword reports whether the upper-cased word is reserved.
func IsKeyword(upper string) bool {
	_, ok := keywords[upper]
	return ok
}

// keywordOf returns the reserved word that word — letters, digits and '_',
// as the lexer reads them — spells in any letter case, without allocating:
// the word is upper-cased into a stack buffer and the token takes the map's
// copy of the text.
func keywordOf(word string) (string, bool) {
	if len(word) > maxKeywordLen {
		return "", false
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(word)])]
	return kw, ok
}

// Canonical renders the prefix strings followed by the canonical text of
// toks, in one allocation: identifiers lower-cased, strings re-quoted with
// each embedded quote doubled, every other token verbatim (keywords arrive upper-cased and
// != folded to <>), joined by single spaces, with trailing semicolons and
// the EOF token dropped. Two token streams render alike exactly when they
// are equal up to identifier case. It errors on a stream with no tokens.
func Canonical(toks []Token, prefix ...string) (string, error) {
	end := len(toks)
	for end > 0 && (toks[end-1].Kind == KindEOF || toks[end-1].Kind == KindSymbol && toks[end-1].Text == ";") {
		end--
	}
	if end == 0 {
		return "", fmt.Errorf("empty statement")
	}
	size := end - 1 // the separating spaces
	for _, p := range prefix {
		size += len(p)
	}
	for _, t := range toks[:end] {
		size += len(t.Text)
		if t.Kind == KindString {
			size += 2 + strings.Count(t.Text, "'")
		}
	}
	var sb strings.Builder
	sb.Grow(size)
	for _, p := range prefix {
		sb.WriteString(p)
	}
	for i, t := range toks[:end] {
		if i > 0 {
			sb.WriteByte(' ')
		}
		switch t.Kind {
		case KindIdent:
			// The lexer's identifiers are ASCII.
			for j := 0; j < len(t.Text); j++ {
				c := t.Text[j]
				if 'A' <= c && c <= 'Z' {
					c += 'a' - 'A'
				}
				sb.WriteByte(c)
			}
		case KindString:
			sb.WriteByte('\'')
			sb.WriteString(strings.ReplaceAll(t.Text, "'", "''"))
			sb.WriteByte('\'')
		default:
			sb.WriteString(t.Text)
		}
	}
	return sb.String(), nil
}
