package exec

import (
	"fmt"
	"strconv"
	"strings"
)

// The row codec renders rows as tab-separated fields, one row per line,
// in the style of Hive's default text SerDe: NULL is `\N`, and tab,
// newline, carriage return and backslash are backslash-escaped so the
// encoding is injective. Floats always carry a '.' or exponent, so that a
// TypeNull column — one the plan could not type — reads them as floats.

const nullField = `\N`

// AppendField appends a value's codec field to dst.
func AppendField(dst []byte, v Value) []byte {
	switch v.T {
	case TypeInt:
		return strconv.AppendInt(dst, v.I, 10)
	case TypeFloat:
		start := len(dst)
		dst = strconv.AppendFloat(dst, v.F, 'g', -1, 64)
		// Digits-only renderings get a ".0" so the field still reads as a
		// float; Inf and NaN are recognisable as they are.
		for _, c := range dst[start:] {
			if c == '.' || c == 'e' || c == 'E' || c == 'I' || c == 'N' {
				return dst
			}
		}
		return append(dst, ".0"...)
	case TypeString:
		return appendEscaped(dst, v.S)
	case TypeBool:
		if v.B {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	default:
		return append(dst, nullField...)
	}
}

// AppendKeyField appends a value's field as a key — a grouping, DISTINCT
// or equi-join key: the codec field, except that -0.0 is written as 0.0,
// so the two zeros Compare calls equal are one key. Row text keeps the
// sign.
func AppendKeyField(dst []byte, v Value) []byte {
	if v.T == TypeFloat && v.F == 0 {
		v.F = 0
	}
	return AppendField(dst, v)
}

// AppendKey appends a list of values as a key: tab-separated like
// AppendRow, each field by AppendKeyField.
func AppendKey(dst []byte, vals []Value) []byte {
	for i, v := range vals {
		if i > 0 {
			dst = append(dst, '\t')
		}
		dst = AppendKeyField(dst, v)
	}
	return dst
}

// AppendRow appends a row's tab-separated fields to dst.
func AppendRow(dst []byte, r Row) []byte {
	for i, v := range r {
		if i > 0 {
			dst = append(dst, '\t')
		}
		dst = AppendField(dst, v)
	}
	return dst
}

// encodeBuf sizes the stack buffers the string-returning encoders render
// into: wider than any workload row, so a row costs one allocation (the
// returned string) and longer rows merely spill to the heap.
const encodeBuf = 256

// EncodeField renders a single value as a codec field.
func EncodeField(v Value) string {
	var buf [encodeBuf]byte
	return string(AppendField(buf[:0], v))
}

func appendEscaped(dst []byte, s string) []byte {
	if !strings.ContainsAny(s, "\\\t\n\r") {
		return append(dst, s...)
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			dst = append(dst, `\\`...)
		case '\t':
			dst = append(dst, `\t`...)
		case '\n':
			dst = append(dst, `\n`...)
		case '\r':
			dst = append(dst, `\r`...)
		default:
			dst = append(dst, s[i])
		}
	}
	return dst
}

func unescapeString(s string) (string, error) {
	if !strings.Contains(s, `\`) {
		return s, nil
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			sb.WriteByte(s[i])
			continue
		}
		i++
		if i >= len(s) {
			return "", fmt.Errorf("dangling escape in field %q", s)
		}
		switch s[i] {
		case '\\':
			sb.WriteByte('\\')
		case 't':
			sb.WriteByte('\t')
		case 'n':
			sb.WriteByte('\n')
		case 'r':
			sb.WriteByte('\r')
		case 'N':
			// `\N` alone means NULL; embedded it round-trips as literal.
			sb.WriteString("N")
		default:
			return "", fmt.Errorf("unknown escape %q in field %q", s[i], s)
		}
	}
	return sb.String(), nil
}

// DecodeField parses a field produced by EncodeField into a value of the
// given type. Only TypeNull, the type of a column the plan could not type,
// lets the field's own syntax decide: integers, floats, true/false and NULL
// are recognized, anything else is a string.
func DecodeField(field string, t Type) (Value, error) {
	if field == nullField {
		return Null(), nil
	}
	switch t {
	case TypeInt:
		i, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parse int field %q: %w", field, err)
		}
		return Int(i), nil
	case TypeFloat:
		f, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parse float field %q: %w", field, err)
		}
		return Float(f), nil
	case TypeBool:
		switch field {
		case "true":
			return Bool(true), nil
		case "false":
			return Bool(false), nil
		}
		return Value{}, fmt.Errorf("parse bool field %q", field)
	case TypeString:
		s, err := unescapeString(field)
		if err != nil {
			return Value{}, err
		}
		return Str(s), nil
	case TypeNull:
		// Untyped: infer from syntax. The parsers only see fields that can
		// be numbers, so ordinary strings cost no *strconv.NumError.
		if looksInt(field) {
			if i, err := strconv.ParseInt(field, 10, 64); err == nil {
				return Int(i), nil
			}
		}
		if looksFloat(field) {
			if f, err := strconv.ParseFloat(field, 64); err == nil {
				return Float(f), nil
			}
		}
		if field == "true" {
			return Bool(true), nil
		}
		if field == "false" {
			return Bool(false), nil
		}
		s, err := unescapeString(field)
		if err != nil {
			return Value{}, err
		}
		return Str(s), nil
	default:
		return Value{}, fmt.Errorf("decode field: unsupported type %v", t)
	}
}

// unsigned strips one leading sign.
func unsigned(field string) string {
	if field != "" && (field[0] == '+' || field[0] == '-') {
		return field[1:]
	}
	return field
}

// looksInt reports whether field is an optionally signed run of digits —
// everything strconv.ParseInt(field, 10, 64) accepts, bar the range check.
func looksInt(field string) bool {
	digits := unsigned(field)
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return false
		}
	}
	return digits != ""
}

// looksFloat reports whether field may be a float: it must carry the
// marker AppendField guarantees ('.', an exponent, Inf or NaN), hold a
// digit, and consist only of bytes strconv.ParseFloat can accept.
// ParseFloat still decides; this only keeps it away from fields it would
// reject with an allocated error.
func looksFloat(field string) bool {
	body := unsigned(field)
	if body == "" {
		return false
	}
	switch c := body[0]; {
	case c == 'I':
		return body == "Inf" || (strings.HasPrefix(body, "Inf") && strings.EqualFold(body, "infinity"))
	case c == 'N':
		return field == "NaN"
	case c != '.' && (c < '0' || c > '9'):
		return false
	}
	marked, digit := false, false
	for i := 0; i < len(body); i++ {
		switch c := body[i]; {
		case c == '.' || c == 'e' || c == 'E':
			marked = true
		case c >= '0' && c <= '9':
			digit = true
		case c >= 'a' && c <= 'f', c >= 'A' && c <= 'F',
			c == 'x', c == 'X', c == 'p', c == 'P', c == '_', c == '+', c == '-':
		default:
			return false
		}
	}
	return marked && digit
}

// EncodeRow renders a row as tab-separated fields.
func EncodeRow(r Row) string {
	var buf [encodeBuf]byte
	return string(AppendRow(buf[:0], r))
}

// DecodeRow parses a tab-separated line into a row using the schema's
// column types.
func DecodeRow(line string, s *Schema) (Row, error) {
	return DecodeCols(line, s, nil)
}

// DecodeCols parses only the listed columns of a line (ascending schema
// positions; nil means every column) straight into a row of that width, in
// one pass over the line. The line must still have exactly the schema's
// field count, and a malformed listed column is an error naming the
// column; fields of unlisted columns are skipped unparsed, so a malformed
// value there goes unnoticed — the lazy-SerDe contract: a reader only
// vouches for the columns it reads.
func DecodeCols(line string, s *Schema, cols []int) (Row, error) {
	return DecodeColsInto(nil, line, s, cols)
}

// DecodeColsInto is DecodeCols into caller-owned storage: the row is built
// in dst's storage — overwritten from its first element, not appended to —
// when it has room, and in a fresh row otherwise, so a map task decoding
// line after line into one scratch row allocates nothing. The row is never
// nil, even when no column is listed. A zero-column schema reads the empty
// line as the empty row, which a one-column schema reads as one empty field.
func DecodeColsInto(dst Row, line string, s *Schema, cols []int) (Row, error) {
	n := len(s.Cols)
	if cols != nil {
		n = len(cols)
	}
	if dst == nil || cap(dst) < n {
		dst = make(Row, n)
	}
	row := dst[:n]
	if len(s.Cols) == 0 && line == "" {
		return row, nil
	}
	pos, fi := 0, 0 // line[pos:] starts field fi
	for ci := range row {
		col := ci
		if cols != nil {
			col = cols[ci]
		}
		for ; fi < col; fi++ {
			tab := strings.IndexByte(line[pos:], '\t')
			if tab < 0 {
				return nil, fieldCountError(line, s)
			}
			pos += tab + 1
		}
		end := len(line)
		if tab := strings.IndexByte(line[pos:], '\t'); tab >= 0 {
			end = pos + tab
		}
		v, err := DecodeField(line[pos:end], s.Cols[col].Type)
		if err != nil {
			if strings.Count(line, "\t")+1 != len(s.Cols) {
				return nil, fieldCountError(line, s)
			}
			return nil, fmt.Errorf("column %s: %w", s.Cols[col].QualifiedName(), err)
		}
		row[ci] = v
		if end < len(line) {
			pos, fi = end+1, fi+1
		}
	}
	if fi+1+strings.Count(line[pos:], "\t") != len(s.Cols) {
		return nil, fieldCountError(line, s)
	}
	return row, nil
}

// ScanRow is DecodeRow's single pass without the row: it hands field each
// column's position and raw codec text, left to right, and ranks and words
// failures exactly as DecodeRow does — a wrong field count outranks
// everything, and field's own error comes back as "column <name>: <err>".
// It is how a consumer that wants a line's cells in some other form (or
// only wants to know the line is well-formed) reads a row without building
// one.
func ScanRow(line string, s *Schema, field func(col int, text string) error) error {
	rest, more := line, len(s.Cols) > 0 || line != ""
	for col := range s.Cols {
		if !more {
			return fieldCountError(line, s)
		}
		var text string
		text, rest, more = strings.Cut(rest, "\t")
		if err := field(col, text); err != nil {
			if strings.Count(line, "\t")+1 != len(s.Cols) {
				return fieldCountError(line, s)
			}
			return fmt.Errorf("column %s: %w", s.Cols[col].QualifiedName(), err)
		}
	}
	if more {
		return fieldCountError(line, s)
	}
	return nil
}

func fieldCountError(line string, s *Schema) error {
	return fmt.Errorf("row has %d fields, schema %s has %d", strings.Count(line, "\t")+1, s, len(s.Cols))
}

// EncodeKey renders a list of values as a grouping/partition key
// (AppendKey). The encoding is injective up to the sign of zero and
// preserves nothing about ordering; use Compare on decoded values to sort
// keys.
func EncodeKey(vals []Value) string {
	var buf [encodeBuf]byte
	return string(AppendKey(buf[:0], vals))
}
