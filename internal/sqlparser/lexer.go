package sqlparser

import (
	"fmt"
	"strings"
)

// Lexer splits a SQL string into tokens. The zero value is not usable; call
// NewLexer.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// SyntaxError describes a lexical or parse failure with its position.
type SyntaxError struct {
	Msg  string
	Pos  int
	Line int
	Col  int
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("syntax error at line %d col %d: %s", e.Line, e.Col, e.Msg)
}

func (l *Lexer) errorf(format string, args ...any) error {
	return &SyntaxError{
		Msg:  fmt.Sprintf(format, args...),
		Pos:  l.pos,
		Line: l.line,
		Col:  l.col,
	}
}

func (l *Lexer) peekByte() (byte, bool) {
	if l.pos >= len(l.src) {
		return 0, false
	}
	return l.src[l.pos], true
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() error {
	for {
		c, ok := l.peekByte()
		if !ok {
			return nil
		}
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for {
				c, ok := l.peekByte()
				if !ok || c == '\n' {
					break
				}
				l.advance()
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.src[l.pos] == '*' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errorf("unterminated block comment")
			}
		default:
			return nil
		}
	}
}

func isLetter(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// Next returns the next token, or an error on malformed input. At end of
// input it returns a token with KindEOF.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	start, line, col := l.pos, l.line, l.col
	c, ok := l.peekByte()
	if !ok {
		return Token{Kind: KindEOF, Pos: start, Line: line, Col: col}, nil
	}

	switch {
	case isLetter(c):
		for {
			c, ok := l.peekByte()
			if !ok || !(isLetter(c) || isDigit(c)) {
				break
			}
			l.advance()
		}
		word := l.src[start:l.pos]
		if kw, ok := keywordOf(word); ok {
			return Token{Kind: KindKeyword, Text: kw, Pos: start, Line: line, Col: col}, nil
		}
		return Token{Kind: KindIdent, Text: word, Pos: start, Line: line, Col: col}, nil

	case isDigit(c) || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
		seenDot := false
		for {
			c, ok := l.peekByte()
			if !ok {
				break
			}
			if c == '.' {
				if seenDot {
					break
				}
				// Lookahead: "1.x" where x is not a digit is "1" "." "x".
				if l.pos+1 >= len(l.src) || !isDigit(l.src[l.pos+1]) {
					break
				}
				seenDot = true
				l.advance()
				continue
			}
			if !isDigit(c) {
				break
			}
			l.advance()
		}
		// An exponent, [eE][+-]?digits, only when a digit follows: "1e",
		// "1ex" and "1e+" are the number 1 followed by a word.
		if c, ok := l.peekByte(); ok && (c == 'e' || c == 'E') {
			digits := l.pos + 1
			if digits < len(l.src) && (l.src[digits] == '+' || l.src[digits] == '-') {
				digits++
			}
			if digits < len(l.src) && isDigit(l.src[digits]) {
				for l.pos < digits || l.pos < len(l.src) && isDigit(l.src[l.pos]) {
					l.advance()
				}
			}
		}
		return Token{Kind: KindNumber, Text: l.src[start:l.pos], Pos: start, Line: line, Col: col}, nil

	case c == '\'':
		l.advance()
		escaped := false
		for {
			c, ok := l.peekByte()
			if !ok {
				return Token{}, l.errorf("unterminated string literal")
			}
			l.advance()
			if c != '\'' {
				continue
			}
			// '' escapes a single quote inside a string.
			if c2, ok := l.peekByte(); ok && c2 == '\'' {
				l.advance()
				escaped = true
				continue
			}
			// Between the quotes every ' is half of an aligned '' pair, so
			// only a literal that had one needs its own copy.
			text := l.src[start+1 : l.pos-1]
			if escaped {
				text = strings.ReplaceAll(text, "''", "'")
			}
			return Token{Kind: KindString, Text: text, Pos: start, Line: line, Col: col}, nil
		}

	default:
		return l.lexSymbol(start, line, col)
	}
}

func (l *Lexer) lexSymbol(start, line, col int) (Token, error) {
	c := l.advance()
	mk := func(s string) (Token, error) {
		return Token{Kind: KindSymbol, Text: s, Pos: start, Line: line, Col: col}, nil
	}
	two := func(next byte, twoText, oneText string) (Token, error) {
		if c2, ok := l.peekByte(); ok && c2 == next {
			l.advance()
			return mk(twoText)
		}
		return mk(oneText)
	}
	switch c {
	case '(', ')', ',', '.', ';', '+', '-', '*', '/', '%':
		return mk(l.src[start:l.pos])
	case '=':
		return mk("=")
	case '<':
		if c2, ok := l.peekByte(); ok {
			switch c2 {
			case '=':
				l.advance()
				return mk("<=")
			case '>':
				l.advance()
				return mk("<>")
			}
		}
		return mk("<")
	case '>':
		return two('=', ">=", ">")
	case '!':
		if c2, ok := l.peekByte(); ok && c2 == '=' {
			l.advance()
			return mk("<>") // normalize != to <>
		}
		return Token{}, &SyntaxError{Msg: `unexpected character "!"`, Pos: start, Line: line, Col: col}
	default:
		return Token{}, &SyntaxError{Msg: fmt.Sprintf("unexpected character %q", string(c)), Pos: start, Line: line, Col: col}
	}
}

// bytesPerToken sizes Tokenize's slice: the workload queries average 3.3 to
// 6.8 source bytes a token, so one allocation holds nearly every statement.
const bytesPerToken = 3

// Tokenize lexes the whole input up to EOF.
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	toks := make([]Token, 0, len(src)/bytesPerToken+1)
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == KindEOF {
			return toks, nil
		}
	}
}
