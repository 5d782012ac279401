package exec

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// nullSchema is n columns the plan could not type: DecodeRow over it reads
// every field by its syntax.
func nullSchema(n int) *Schema {
	s := &Schema{Cols: make([]Column, n)}
	for i := range s.Cols {
		s.Cols[i] = Column{Table: "t", Name: "c" + strconv.Itoa(i), Type: TypeNull}
	}
	return s
}

// decodeNullCols decodes a line over TypeNull columns, one per field and
// none for the empty line: the one way the tests turn arbitrary text into
// rows of arbitrary types.
func decodeNullCols(line string) (Row, error) {
	return DecodeRow(line, nullSchema(fieldsOf(line)))
}

// fieldsOf is the field count decodeNullCols gives a line.
func fieldsOf(line string) int {
	if line == "" {
		return 0
	}
	return strings.Count(line, "\t") + 1
}

// FuzzDecodeNullColumns asserts the codec is total on arbitrary input over
// TypeNull columns (decode either succeeds or errors, never panics), types
// every field as the reference inference does, and is idempotent on its own
// output: re-encoding a decoded row and decoding again is stable.
func FuzzDecodeNullColumns(f *testing.F) {
	seeds := []string{
		"",
		"1\t2.5\ttext\ttrue",
		`\N`,
		`a\tb\\c\nd`,
		"\t\t",
		`x\qy`, // invalid escape
		"-0.0\tNaN\t+Inf",
		"9223372036854775807\t-9223372036854775808",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		row, err := decodeNullCols(line)
		if line != "" {
			// Field by field, the split-free walk and the pre-checked
			// parsers infer what Split and the bare parsers did.
			fields := strings.Split(line, "\t")
			for i, field := range fields {
				want, wantErr := inferFieldReference(field)
				if wantErr != nil {
					if err == nil {
						t.Fatalf("field %q of %q: decoded, reference fails with %v", field, line, wantErr)
					}
					break
				}
				if err == nil && (len(row) != len(fields) || !sameValue(row[i], want)) {
					t.Fatalf("field %d of %q: got %v, reference infers %v", i, line, row, want)
				}
			}
		}
		if err != nil {
			return
		}
		enc := EncodeRow(row)
		again, err := decodeNullCols(enc)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %q -> %q: %v", line, enc, err)
		}
		if EncodeRow(again) != enc {
			t.Fatalf("codec not idempotent: %q -> %q -> %q", line, enc, EncodeRow(again))
		}
	})
}

// FuzzOrderedKey checks the memcomparable property EncodeOrderedKey exists
// for: byte order of the encodings must equal (Compare, desc-flag) order of
// the value lists, and Compare-equal lists must encode identically. There
// is deliberately no decoder, so order preservation is the whole contract.
//
// Documented collisions are skipped rather than asserted around: integers
// at or beyond 2^53 (encoded through float64). NaN and -0.0 need no such
// care: every NaN and -0.0 encode in one canonical form each.
func FuzzOrderedKey(f *testing.F) {
	f.Add("1\t2.5\ttext\ttrue", "1\t2.5\ttext\tfalse", uint8(0))
	f.Add(`\N`+"\tabc", "0\tabd", uint8(2))
	f.Add("-1.5\t-2", "1\t-2", uint8(3))
	f.Add("a", "a\t0", uint8(1))
	f.Add("prefix", "prefixer", uint8(1))
	f.Add("-0.0\t1", "0.0\t0", uint8(0))
	f.Add("NaN\t1", "NaN\t0", uint8(1))
	f.Add("NaN", "+Inf", uint8(0))
	f.Fuzz(func(t *testing.T, la, lb string, descBits uint8) {
		ra, ok := normalizedRow(la)
		if !ok {
			return
		}
		rb, ok := normalizedRow(lb)
		if !ok {
			return
		}
		n := len(ra)
		if len(rb) < n {
			n = len(rb)
		}
		desc := make([]bool, n)
		for i := range desc {
			desc[i] = descBits&(1<<(i%8)) != 0
		}

		want := 0
		for i := 0; i < n && want == 0; i++ {
			c := Compare(ra[i], rb[i])
			if desc[i] {
				c = -c
			}
			want = c
		}
		if want == 0 {
			// Component encodings are prefix-free, so on an equal common
			// prefix the row with fewer components sorts first.
			switch {
			case len(ra) < len(rb):
				want = -1
			case len(ra) > len(rb):
				want = 1
			}
		}

		ka := EncodeOrderedKey(ra, desc)
		kb := EncodeOrderedKey(rb, desc)
		if got := sign(strings.Compare(ka, kb)); got != want {
			t.Fatalf("byte order %d != value order %d for %v vs %v (desc %v)", got, want, ra, rb, desc)
		}
		if want == 0 && ka != kb {
			t.Fatalf("Compare-equal rows encode differently: %v vs %v -> %x vs %x", ra, rb, ka, kb)
		}
	})
}

// normalizedRow decodes a fuzz line, refusing rows outside the domain
// where the ordered-key encoding is injective on Compare classes.
func normalizedRow(line string) (Row, bool) {
	row, err := decodeNullCols(line)
	if err != nil {
		return nil, false
	}
	for _, v := range row {
		if v.T == TypeInt && (v.I >= 1<<53 || v.I <= -(1<<53)) {
			return nil, false
		}
	}
	return row, true
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// inferFieldReference is TypeNull field inference as first written: offer
// the field to ParseInt, then (if it carries a float marker) to ParseFloat,
// and take whatever does not fail. DecodeField now pre-checks the syntax so
// that ordinary strings never reach a parser; this is what it must equal.
func inferFieldReference(field string) (Value, error) {
	if field == nullField {
		return Null(), nil
	}
	if i, err := strconv.ParseInt(field, 10, 64); err == nil {
		return Int(i), nil
	}
	if strings.ContainsAny(field, ".eE") || strings.Contains(field, "Inf") || field == "NaN" {
		if f, err := strconv.ParseFloat(field, 64); err == nil {
			return Float(f), nil
		}
	}
	if field == "true" || field == "false" {
		return Bool(field == "true"), nil
	}
	s, err := unescapeString(field)
	return Str(s), err
}

// sameValue is == on values, with NaN equal to itself.
func sameValue(a, b Value) bool {
	if a.T == TypeFloat && b.T == TypeFloat && math.IsNaN(a.F) && math.IsNaN(b.F) {
		return true
	}
	return a == b
}

// FuzzAppendRow checks the append-style encoders against the per-field
// one: AppendRow after any prefix is that prefix plus the EncodeField
// renderings joined by tabs, EncodeRow and EncodeKey are the same bytes,
// and the bytes survive a decode and re-encode.
func FuzzAppendRow(f *testing.F) {
	f.Add("", "")
	f.Add("key|", "1\t2.5\ttext\ttrue\t\\N")
	f.Add("x", "-0.0\tNaN\t+Inf\t1e300\t3.0")
	f.Add("", `a\tb\\c\nd`+"\t\t")
	f.Fuzz(func(t *testing.T, prefix, line string) {
		row, err := decodeNullCols(line)
		if err != nil {
			return
		}
		fields := make([]string, len(row))
		for i, v := range row {
			fields[i] = EncodeField(v)
			if got := string(AppendField([]byte(prefix), v)); got != prefix+fields[i] {
				t.Fatalf("AppendField(%q, %v) = %q, want %q", prefix, v, got, prefix+fields[i])
			}
		}
		want := strings.Join(fields, "\t")
		if got := string(AppendRow([]byte(prefix), row)); got != prefix+want {
			t.Fatalf("AppendRow(%q, %v) = %q, want %q", prefix, row, got, prefix+want)
		}
		if got := EncodeRow(row); got != want {
			t.Fatalf("EncodeRow(%v) = %q, want %q", row, got, want)
		}
		if got := EncodeKey(row); got != want {
			t.Fatalf("EncodeKey(%v) = %q, want %q", row, got, want)
		}
		back, err := decodeNullCols(want)
		if err != nil {
			t.Fatalf("own encoding %q does not decode: %v", want, err)
		}
		// Not the same values necessarily — a string spelled like a number
		// decodes as one — but the same bytes.
		if again := EncodeRow(back); again != want {
			t.Fatalf("%v -> %q -> %v -> %q", row, want, back, again)
		}
	})
}

// FuzzDecodeCols checks the demand-driven decoder against the full one
// over arbitrary lines, schemas and column demands: whenever DecodeRow
// succeeds, DecodeCols returns exactly its projection; a wrong field count
// fails in both; and DecodeCols never fails on a line DecodeRow accepts
// (it may accept more — columns it was not asked to read go unparsed).
// ScanRow, the same walk with no row, is held to DecodeRow exactly: the same
// values field by field, the same error text.
func FuzzDecodeCols(f *testing.F) {
	f.Add("x\t2\t3", uint32(0), uint16(0), uint8(0))
	f.Add("x\t2", uint32(0), uint16(0), uint8(1))
	f.Add("1\t2.5\ttext\ttrue", uint32(0x1b), uint16(0x9), uint8(0))
	f.Add("1\tx\t3", uint32(0), uint16(0x5), uint8(0))
	f.Add("1\t2", uint32(0), uint16(0x3), uint8(1))
	f.Add("", uint32(3), uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, line string, typeBits uint32, demand uint16, extraCols uint8) {
		// Mostly the line's own field count, sometimes up to 3 more.
		n := strings.Count(line, "\t") + 1 + int(extraCols%4)
		if n > 16 {
			return
		}
		types := []Type{TypeInt, TypeFloat, TypeString, TypeBool}
		s := &Schema{Cols: make([]Column, n)}
		cols := []int{} // nil would demand every column
		for i := range s.Cols {
			s.Cols[i] = Column{Table: "t", Name: "c" + strconv.Itoa(i), Type: types[typeBits>>(2*i)&3]}
			if demand&(1<<i) != 0 {
				cols = append(cols, i)
			}
		}
		full, fullErr := DecodeRow(line, s)
		// ScanRow is the same pass without the row: it sees DecodeRow's
		// values and fails with DecodeRow's text.
		var scanned Row
		scanErr := ScanRow(line, s, func(col int, text string) error {
			v, err := DecodeField(text, s.Cols[col].Type)
			scanned = append(scanned, v)
			return err
		})
		switch {
		case fullErr != nil && (scanErr == nil || scanErr.Error() != fullErr.Error()):
			t.Fatalf("ScanRow(%q) fails with %v, DecodeRow with %v", line, scanErr, fullErr)
		case fullErr == nil && (scanErr != nil || len(scanned) != len(full)):
			t.Fatalf("ScanRow(%q) = %v, %v on a line DecodeRow reads as %v", line, scanned, scanErr, full)
		case fullErr == nil:
			for i := range full {
				if !sameValue(scanned[i], full[i]) {
					t.Fatalf("ScanRow(%q) saw %v, DecodeRow %v", line, scanned, full)
				}
			}
		}
		got, err := DecodeCols(line, s, cols)
		if strings.Count(line, "\t")+1 != n {
			if fullErr == nil || err == nil {
				t.Fatalf("%d fields against %d columns: DecodeRow err %v, DecodeCols err %v", strings.Count(line, "\t")+1, n, fullErr, err)
			}
			return
		}
		if fullErr != nil {
			return
		}
		if err != nil {
			t.Fatalf("DecodeCols(%q, %v) fails with %v on a line DecodeRow accepts", line, cols, err)
		}
		want := make(Row, len(cols))
		for i, c := range cols {
			want[i] = full[c]
		}
		if len(got) != len(want) {
			t.Fatalf("DecodeCols(%q, %v) = %v, want %v", line, cols, got, want)
		}
		for i := range want {
			if !sameValue(got[i], want[i]) {
				t.Fatalf("DecodeCols(%q, %v) = %v, want %v", line, cols, got, want)
			}
		}
	})
}

// FuzzRowRoundTrip is the typed codec's contract, the one every reader of
// intermediate data — the shuffle included — relies on: a schema of 0–16
// columns and a row of it, both drawn from the fuzz bytes, come back from
// DecodeRow(EncodeRow(r), s) bit for bit (NaN payloads aside: every NaN
// encodes as "NaN").
func FuzzRowRoundTrip(f *testing.F) {
	f.Add([]byte{0})          // zero columns: the empty line is the empty row
	f.Add([]byte{1, 2, 1, 0}) // one STRING column holding ''
	f.Add([]byte{1, 2, 1, 2, '\\', 'N'})
	f.Add([]byte{4, 0, 1, 2, 3, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		1, 0x80, 0, 0, 0, 0, 0, 0, 0, 1, 3, '0', '\t', '7', 1, 1})
	f.Add([]byte{3, 1, 1, 1, // a NaN with a payload, +Inf and the least subnormal
		1, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 1, 0x7f, 0xf0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		word := func() uint64 {
			var w uint64
			for i := 0; i < 8; i++ {
				w = w<<8 | uint64(next())
			}
			return w
		}
		types := []Type{TypeInt, TypeFloat, TypeString, TypeBool}
		s := &Schema{Cols: make([]Column, next()%17)}
		for i := range s.Cols {
			s.Cols[i] = Column{Table: "t", Name: "c" + strconv.Itoa(i), Type: types[next()%4]}
		}
		row := make(Row, len(s.Cols))
		for i, c := range s.Cols {
			if next()%8 == 0 {
				row[i] = Null()
				continue
			}
			switch c.Type {
			case TypeInt:
				row[i] = Int(int64(word()))
			case TypeFloat:
				row[i] = Float(math.Float64frombits(word()))
			case TypeString:
				b := make([]byte, next()%12)
				for k := range b {
					b[k] = next()
				}
				row[i] = Str(string(b))
			default:
				row[i] = Bool(next()&1 == 1)
			}
		}
		line := EncodeRow(row)
		got, err := DecodeRow(line, s)
		if err != nil {
			t.Fatalf("DecodeRow(%q, %s) of EncodeRow(%v): %v", line, s, row, err)
		}
		if len(got) != len(row) {
			t.Fatalf("%v -> %q -> %v", row, line, got)
		}
		for i := range row {
			same := got[i] == row[i]
			if row[i].T == TypeFloat && got[i].T == TypeFloat {
				same = math.Float64bits(got[i].F) == math.Float64bits(row[i].F) ||
					math.IsNaN(got[i].F) && math.IsNaN(row[i].F)
			}
			if !same {
				t.Fatalf("column %d: %v -> %q -> %v", i, row, line, got)
			}
		}
	})
}
