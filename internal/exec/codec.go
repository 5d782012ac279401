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

// NullField is the codec field that stands for NULL in a column of any type.
const NullField = `\N`

// AppendField appends a value's codec field to dst. A number that keeps
// its text (Value) is written by copying it; any other is rendered.
func AppendField(dst []byte, v Value) []byte {
	switch v.T {
	case TypeInt:
		if v.S != "" {
			return append(dst, v.S...)
		}
		return strconv.AppendInt(dst, v.I, 10)
	case TypeFloat:
		if v.S != "" {
			return append(dst, v.S...)
		}
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
		return append(dst, NullField...)
	}
}

// AppendKeyField appends a value's field as a key — a grouping, DISTINCT
// or equi-join key: the codec field, except that -0.0 is written as 0.0,
// so the two zeros Compare calls equal are one key. A float zero drops its
// kept text with its sign, since the text may spell -0.0. Row text keeps
// the sign.
func AppendKeyField(dst []byte, v Value) []byte {
	if v.T == TypeFloat && v.F == 0 {
		v.F, v.S = 0, ""
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
	if strings.IndexByte(s, '\\') < 0 {
		return s, nil
	}
	var buf [encodeBuf]byte
	b, err := AppendUnescaped(buf[:0], s)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// AppendUnescaped appends the value of a String field to dst: the field
// with the codec's escapes undone, as DecodeField reads it, except that the
// field NullField alone — NULL to DecodeField — is the caller's to test.
// It is how a writer that wants the bytes, not a string, reads an escaped
// field without allocating.
func AppendUnescaped(dst []byte, field string) ([]byte, error) {
	for i := 0; ; i++ {
		j := strings.IndexByte(field[i:], '\\')
		if j < 0 {
			return append(dst, field[i:]...), nil
		}
		dst = append(dst, field[i:i+j]...)
		i += j + 1
		if i >= len(field) {
			return dst, fmt.Errorf("dangling escape in field %q", field)
		}
		switch field[i] {
		case '\\':
			dst = append(dst, '\\')
		case 't':
			dst = append(dst, '\t')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 'N':
			// `\N` alone means NULL; embedded it round-trips as literal.
			dst = append(dst, 'N')
		default:
			return dst, fmt.Errorf("unknown escape %q in field %q", field[i], field)
		}
	}
}

// DecodeField parses a field produced by EncodeField into a value of the
// given type. Only TypeNull, the type of a column the plan could not type,
// lets the field's own syntax decide: integers, floats, true/false and NULL
// are recognized, anything else is a string.
func DecodeField(field string, t Type) (Value, error) {
	if field == NullField {
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

// CutField is the codec's field scanner. One pass over s finds where its
// first field ends — at the first tab, or at the end of s — while it checks
// whether that field is canonical for column type t: field, rest and found
// are strings.Cut(s, "\t")'s. A field the grammar refuses finishes its tab
// search with strings.IndexByte from the byte that refused it, and a column
// type the grammar never accepts is cut by strings.Cut alone.
//
// A canonical field is one where DecodeField followed by Value.String is a
// byte copy: the field is inside a grammar narrow enough that the text
// spelling of the value it decodes to is a substring of it, and text is that
// substring. Otherwise text is "" and the caller parses and renders. An
// accepted number is spelled exactly as AppendField writes its value, and an
// accepted field always decodes, so the caller may also take acceptance as
// the parse check. The grammar:
//
//   - TypeInt: -?(0|[1-9][0-9]{0,17}), except -0 — at most 18 digits, so
//     never out of range.
//   - TypeFloat, integer-valued: -?(0|[1-9][0-9]{0,5})\.0; the text drops
//     the ".0" marker.
//   - TypeFloat, fractional: -?(0|[1-9][0-9]{0,5})\.[0-9]+, where a "0"
//     integer part is followed by at most three zeros, the last digit is
//     not 0 and there are at most 15 significant digits.
//   - TypeString: no backslash, so nothing is escaped.
//
// Every other field — `\N`, E-form, more digits, NaN and ±Inf, leading or
// trailing zeros, a '+', bools, an untyped column — is refused.
//
// Why the float rule is exact: AppendFloat(f, 'g', -1) prints the shortest
// decimal that parses back to f, in F-form when f's magnitude is in
// [1e-4, 1e6) — the range the integer part and the three-zero cap keep to.
// Two different decimals of at most 15 significant digits never parse to one
// double (DBL_DIG = 15: such a decimal survives the round trip through a
// double), so the shortest decimal of the double the field parses to is the
// field's own digits, and F-form puts them back as the field spells them.
func CutField(s string, t Type) (field, text string, canonical bool, rest string, found bool) {
	switch t {
	case TypeInt:
		return cutInt(s)
	case TypeFloat:
		return cutFloat(s)
	case TypeString:
		for i := 0; i < len(s); i++ {
			switch s[i] {
			case '\t':
				return s[:i], s[:i], true, s[i+1:], true
			case '\\':
				field, rest, found = cutFrom(s, i)
				return field, "", false, rest, found
			}
		}
		return s, s, true, "", false
	}
	field, rest, found = strings.Cut(s, "\t")
	return field, "", false, rest, found
}

// cutInt is CutField's TypeInt scan.
func cutInt(s string) (field, text string, canonical bool, rest string, found bool) {
	i := 0
	if s != "" && s[0] == '-' {
		i = 1
	}
	start := i
	for i < len(s) && s[i]-'0' <= 9 && i-start < 18 {
		i++
	}
	if i < len(s) && s[i] != '\t' {
		field, rest, found = cutFrom(s, i)
		return field, "", false, rest, found
	}
	field, rest, found = cutAt(s, i)
	if i == start || s[start] == '0' && (i-start > 1 || start > 0) {
		return field, "", false, rest, found
	}
	return field, field, true, rest, found
}

// cutFloat is CutField's TypeFloat scan.
func cutFloat(s string) (field, text string, canonical bool, rest string, found bool) {
	i := 0
	if s != "" && s[0] == '-' {
		i = 1
	}
	start := i
	for i < len(s) && s[i]-'0' <= 9 {
		i++
	}
	intLen := i - start
	if intLen == 0 || intLen > 6 || s[start] == '0' && intLen > 1 || i == len(s) || s[i] != '.' {
		field, rest, found = cutFrom(s, i)
		return field, "", false, rest, found
	}
	i++
	fracStart := i
	for i < len(s) && s[i]-'0' <= 9 {
		i++
	}
	if i < len(s) && s[i] != '\t' {
		field, rest, found = cutFrom(s, i)
		return field, "", false, rest, found
	}
	field, rest, found = cutAt(s, i)
	frac := s[fracStart:i]
	switch {
	case frac == "0":
		return field, field[:len(field)-2], true, rest, found
	case frac == "" || frac[len(frac)-1] == '0':
		return field, "", false, rest, found
	}
	sig := intLen + len(frac)
	if intLen == 1 && s[start] == '0' {
		zeros := 0
		for frac[zeros] == '0' {
			zeros++
		}
		if zeros > 3 {
			return field, "", false, rest, found
		}
		sig = len(frac) - zeros
	}
	if sig > 15 {
		return field, "", false, rest, found
	}
	return field, field, true, rest, found
}

// pow10 holds the powers of ten an accepted float field divides by, every
// one exact in a float64.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18}

// intOf is the value of an INT field CutField accepted: at most 18 digits
// after an optional '-', so the sum never overflows.
func intOf(field string) int64 {
	neg := field[0] == '-'
	i := 0
	if neg {
		i = 1
	}
	var v int64
	for ; i < len(field); i++ {
		v = v*10 + int64(field[i]-'0')
	}
	if neg {
		v = -v
	}
	return v
}

// floatOf is the value of a FLOAT field CutField accepted: its digits, read
// as an integer m, over 10^k for the k digits after the point — Clinger's
// exact case, since the grammar keeps m below 10^15 < 2^53 and k at most
// 18, so both are exact float64s and the one rounding of the division is
// strconv.ParseFloat's correctly rounded result. The sign is applied last,
// so -0.0 keeps it.
func floatOf(field string) float64 {
	neg := field[0] == '-'
	i := 0
	if neg {
		i = 1
	}
	var m uint64
	k := 0
	for ; i < len(field); i++ {
		if c := field[i]; c == '.' {
			k = len(field) - i - 1
		} else {
			m = m*10 + uint64(c-'0')
		}
	}
	f := float64(m) / pow10[k]
	if neg {
		f = -f
	}
	return f
}

// cutAt cuts s at i, where s holds a tab or ends.
func cutAt(s string, i int) (field, rest string, found bool) {
	if i == len(s) {
		return s, "", false
	}
	return s[:i], s[i+1:], true
}

// cutFrom cuts s at its first tab, which is not before i.
func cutFrom(s string, i int) (field, rest string, found bool) {
	if j := strings.IndexByte(s[i:], '\t'); j >= 0 {
		return s[:i+j], s[i+j+1:], true
	}
	return s, "", false
}

// allDigits reports whether s is made of ASCII digits only.
func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
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
	return digits != "" && allDigits(digits)
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
	return DecodeColsInto(nil, line, s, nil)
}

// DecodeColsInto parses only the listed columns of a line (ascending
// schema positions; nil means every column) straight into a row of that
// width, in one pass over the line. Each listed field is cut by CutField.
// An INT or FLOAT field its grammar accepts is read from its digits, not by
// strconv, and the value keeps the field, viewed from the line, as its
// text (Value), so AppendField writes it back as a copy; a String field
// with no escape is a view of the field. Every field the grammar refuses —
// NULL, an escaped string, a number in any other spelling, an untyped
// column — is parsed by DecodeField. So a decoded value holds no byte of
// its own and views line for as long as it lives. The line must still have exactly the
// schema's field count, and a malformed listed column is an error naming
// the column; fields of unlisted columns are skipped unparsed, so a
// malformed value there goes unnoticed — the lazy-SerDe contract: a reader
// only vouches for the columns it reads. The row is built in dst's storage
// — overwritten from its first element, not appended to — when it has
// room, and in a fresh row otherwise, so a map task decoding line after
// line into one scratch row allocates nothing. The row is never nil, even
// when no column is listed. A zero-column schema reads the empty line as
// the empty row, which a one-column schema reads as one empty field.
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
		n, err := cutValue(&row[ci], line[pos:], s.Cols[col].Type)
		if err != nil {
			if strings.Count(line, "\t")+1 != len(s.Cols) {
				return nil, fieldCountError(line, s)
			}
			return nil, fmt.Errorf("column %s: %w", s.Cols[col].QualifiedName(), err)
		}
		if end := pos + n; end < len(line) {
			pos, fi = end+1, fi+1
		}
	}
	if fi+1+strings.Count(line[pos:], "\t") != len(s.Cols) {
		return nil, fieldCountError(line, s)
	}
	return row, nil
}

// cutValue cuts the first field of s as CutField does, decodes it into dst
// as a value of type t and returns the field's length: a number the
// grammar accepts is read from its digits (intOf, floatOf) and keeps the
// field as its text, an accepted String field is the field itself, and
// any other field is DecodeField's. It calls the type's scan itself and
// writes the row's slot in place rather than returning a 40-byte value:
// on the decode path, both measured faster than the plain forms.
func cutValue(dst *Value, s string, t Type) (n int, err error) {
	var field string
	var ok bool
	switch t {
	case TypeInt:
		if field, _, ok, _, _ = cutInt(s); ok {
			*dst = Value{T: TypeInt, I: intOf(field), S: field}
			return len(field), nil
		}
	case TypeFloat:
		if field, _, ok, _, _ = cutFloat(s); ok {
			*dst = Value{T: TypeFloat, F: floatOf(field), S: field}
			return len(field), nil
		}
	default:
		if field, _, ok, _, _ = CutField(s, t); ok {
			*dst = Str(field)
			return len(field), nil
		}
	}
	*dst, err = DecodeField(field, t)
	return len(field), err
}

// ScanRow is DecodeRow's single pass without the row: it cuts each field
// with CutField under its column's type and hands fn the column's position,
// the field and CutField's copy text and verdict, left to right, and ranks
// and words failures exactly as DecodeRow does — a wrong field count
// outranks everything, and fn's own error comes back as "column <name>:
// <err>". It is how a consumer that wants a line's cells in some other form
// (or only wants to know the line is well-formed) reads a row without
// building one.
func ScanRow(line string, s *Schema, fn func(col int, field, text string, canonical bool) error) error {
	rest, more := line, len(s.Cols) > 0 || line != ""
	for col, c := range s.Cols {
		if !more {
			return fieldCountError(line, s)
		}
		var field, text string
		var canonical bool
		field, text, canonical, rest, more = CutField(rest, c.Type)
		if err := fn(col, field, text, canonical); err != nil {
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
