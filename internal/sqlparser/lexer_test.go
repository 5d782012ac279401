package sqlparser

import (
	"strings"
	"testing"
)

func TestTokenizeBasics(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want []Token
	}{
		{
			name: "keywords and identifiers",
			src:  "SELECT foo FROM bar",
			want: []Token{
				{Kind: KindKeyword, Text: "SELECT"},
				{Kind: KindIdent, Text: "foo"},
				{Kind: KindKeyword, Text: "FROM"},
				{Kind: KindIdent, Text: "bar"},
				{Kind: KindEOF},
			},
		},
		{
			name: "case-insensitive keywords",
			src:  "select From wHeRe",
			want: []Token{
				{Kind: KindKeyword, Text: "SELECT"},
				{Kind: KindKeyword, Text: "FROM"},
				{Kind: KindKeyword, Text: "WHERE"},
				{Kind: KindEOF},
			},
		},
		{
			name: "numbers",
			src:  "1 42 3.14 0.2 7.0",
			want: []Token{
				{Kind: KindNumber, Text: "1"},
				{Kind: KindNumber, Text: "42"},
				{Kind: KindNumber, Text: "3.14"},
				{Kind: KindNumber, Text: "0.2"},
				{Kind: KindNumber, Text: "7.0"},
				{Kind: KindEOF},
			},
		},
		{
			name: "exponents",
			src:  "1e5 2.5E-3 .5e+2 7E07",
			want: []Token{
				{Kind: KindNumber, Text: "1e5"},
				{Kind: KindNumber, Text: "2.5E-3"},
				{Kind: KindNumber, Text: ".5e+2"},
				{Kind: KindNumber, Text: "7E07"},
				{Kind: KindEOF},
			},
		},
		{
			name: "no digit after the exponent marker",
			src:  "1e 1ex 1e+ 2E-x",
			want: []Token{
				{Kind: KindNumber, Text: "1"},
				{Kind: KindIdent, Text: "e"},
				{Kind: KindNumber, Text: "1"},
				{Kind: KindIdent, Text: "ex"},
				{Kind: KindNumber, Text: "1"},
				{Kind: KindIdent, Text: "e"},
				{Kind: KindSymbol, Text: "+"},
				{Kind: KindNumber, Text: "2"},
				{Kind: KindIdent, Text: "E"},
				{Kind: KindSymbol, Text: "-"},
				{Kind: KindIdent, Text: "x"},
				{Kind: KindEOF},
			},
		},
		{
			name: "leading-dot float",
			src:  ".5",
			want: []Token{
				{Kind: KindNumber, Text: ".5"},
				{Kind: KindEOF},
			},
		},
		{
			name: "strings with escaped quote",
			src:  "'hello' 'it''s'",
			want: []Token{
				{Kind: KindString, Text: "hello"},
				{Kind: KindString, Text: "it's"},
				{Kind: KindEOF},
			},
		},
		{
			name: "symbols",
			src:  "( ) , . ; = <> < <= > >= + - * / %",
			want: []Token{
				{Kind: KindSymbol, Text: "("},
				{Kind: KindSymbol, Text: ")"},
				{Kind: KindSymbol, Text: ","},
				{Kind: KindSymbol, Text: "."},
				{Kind: KindSymbol, Text: ";"},
				{Kind: KindSymbol, Text: "="},
				{Kind: KindSymbol, Text: "<>"},
				{Kind: KindSymbol, Text: "<"},
				{Kind: KindSymbol, Text: "<="},
				{Kind: KindSymbol, Text: ">"},
				{Kind: KindSymbol, Text: ">="},
				{Kind: KindSymbol, Text: "+"},
				{Kind: KindSymbol, Text: "-"},
				{Kind: KindSymbol, Text: "*"},
				{Kind: KindSymbol, Text: "/"},
				{Kind: KindSymbol, Text: "%"},
				{Kind: KindEOF},
			},
		},
		{
			name: "bang-equals normalizes to <>",
			src:  "a != b",
			want: []Token{
				{Kind: KindIdent, Text: "a"},
				{Kind: KindSymbol, Text: "<>"},
				{Kind: KindIdent, Text: "b"},
				{Kind: KindEOF},
			},
		},
		{
			name: "line comment",
			src:  "a -- comment text\nb",
			want: []Token{
				{Kind: KindIdent, Text: "a"},
				{Kind: KindIdent, Text: "b"},
				{Kind: KindEOF},
			},
		},
		{
			name: "block comment",
			src:  "a /* multi\nline */ b",
			want: []Token{
				{Kind: KindIdent, Text: "a"},
				{Kind: KindIdent, Text: "b"},
				{Kind: KindEOF},
			},
		},
		{
			name: "dotted column stays three tokens",
			src:  "c1.uid",
			want: []Token{
				{Kind: KindIdent, Text: "c1"},
				{Kind: KindSymbol, Text: "."},
				{Kind: KindIdent, Text: "uid"},
				{Kind: KindEOF},
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Tokenize(tt.src)
			if err != nil {
				t.Fatalf("Tokenize(%q): %v", tt.src, err)
			}
			if len(got) != len(tt.want) {
				t.Fatalf("got %d tokens, want %d: %v", len(got), len(tt.want), got)
			}
			for i := range got {
				if got[i].Kind != tt.want[i].Kind || got[i].Text != tt.want[i].Text {
					t.Errorf("token %d = (%v, %q), want (%v, %q)",
						i, got[i].Kind, got[i].Text, tt.want[i].Kind, tt.want[i].Text)
				}
			}
		})
	}
}

func TestTokenizeErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string
	}{
		{"unterminated string", "'abc", "unterminated string"},
		{"unterminated block comment", "/* abc", "unterminated block comment"},
		{"stray bang", "a ! b", "unexpected character"},
		{"stray char", "a @ b", "unexpected character"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Tokenize(tt.src)
			if err == nil {
				t.Fatalf("Tokenize(%q) succeeded, want error containing %q", tt.src, tt.want)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not contain %q", err, tt.want)
			}
		})
	}
}

func TestTokenPositions(t *testing.T) {
	toks, err := Tokenize("SELECT a\nFROM t")
	if err != nil {
		t.Fatal(err)
	}
	// FROM is on line 2, column 1.
	var from Token
	for _, tok := range toks {
		if tok.Kind == KindKeyword && tok.Text == "FROM" {
			from = tok
		}
	}
	if from.Line != 2 || from.Col != 1 {
		t.Errorf("FROM at line %d col %d, want 2:1", from.Line, from.Col)
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Tokenize("a $")
	if err == nil {
		t.Fatal("want error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T, want *SyntaxError", err)
	}
	if se.Line != 1 || se.Col != 3 {
		t.Errorf("error at %d:%d, want 1:3", se.Line, se.Col)
	}
	if !strings.Contains(se.Error(), "line 1 col 3") {
		t.Errorf("message %q lacks position", se.Error())
	}
}

// TestKeywordsFitTheLexerBuffer: keywordOf upper-cases into a
// maxKeywordLen-byte buffer and calls any longer word an identifier, which
// is only right while no keyword is longer.
func TestKeywordsFitTheLexerBuffer(t *testing.T) {
	for kw := range keywords {
		if len(kw) > maxKeywordLen {
			t.Errorf("keyword %s is longer than maxKeywordLen %d", kw, maxKeywordLen)
		}
	}
}
