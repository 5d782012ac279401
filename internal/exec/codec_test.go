package exec

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEncodeFieldBasics(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{Null(), `\N`},
		{Int(42), "42"},
		{Int(-1), "-1"},
		{Float(2.5), "2.5"},
		{Float(3), "3.0"}, // floats always marked so type survives
		{Str("plain"), "plain"},
		{Str("a\tb"), `a\tb`},
		{Str("a\nb"), `a\nb`},
		{Str(`a\b`), `a\\b`},
		{Str(`\N`), `\\N`}, // literal backslash-N is not NULL
		{Bool(true), "true"},
	}
	for _, tt := range tests {
		if got := EncodeField(tt.v); got != tt.want {
			t.Errorf("EncodeField(%v) = %q, want %q", tt.v, got, tt.want)
		}
	}
}

func TestDecodeFieldTyped(t *testing.T) {
	tests := []struct {
		field string
		typ   Type
		want  Value
	}{
		{`\N`, TypeInt, Null()},
		{"42", TypeInt, Int(42)},
		{"2.5", TypeFloat, Float(2.5)},
		{"3.0", TypeFloat, Float(3)},
		{"true", TypeBool, Bool(true)},
		{"false", TypeBool, Bool(false)},
		{`a\tb`, TypeString, Str("a\tb")},
		{"x", TypeString, Str("x")},
	}
	for _, tt := range tests {
		got, err := DecodeField(tt.field, tt.typ)
		if err != nil {
			t.Errorf("DecodeField(%q, %v): %v", tt.field, tt.typ, err)
			continue
		}
		if got != tt.want {
			t.Errorf("DecodeField(%q, %v) = %v, want %v", tt.field, tt.typ, got, tt.want)
		}
	}
}

func TestDecodeFieldErrors(t *testing.T) {
	tests := []struct {
		field string
		typ   Type
	}{
		{"abc", TypeInt},
		{"abc", TypeFloat},
		{"maybe", TypeBool},
		{`a\qb`, TypeString}, // unknown escape
		{`a\`, TypeString},   // dangling escape
	}
	for _, tt := range tests {
		if _, err := DecodeField(tt.field, tt.typ); err == nil {
			t.Errorf("DecodeField(%q, %v) succeeded, want error", tt.field, tt.typ)
		}
	}
}

func TestRowRoundTripTyped(t *testing.T) {
	s := NewSchema(
		Column{Name: "a", Type: TypeInt},
		Column{Name: "b", Type: TypeString},
		Column{Name: "c", Type: TypeFloat},
		Column{Name: "d", Type: TypeBool},
	)
	rows := []Row{
		{Int(1), Str("x"), Float(1.5), Bool(true)},
		{Null(), Str("tab\there"), Null(), Bool(false)},
		{Int(-9), Str(""), Float(0), Null()},
	}
	for _, r := range rows {
		line := EncodeRow(r)
		got, err := DecodeRow(line, s)
		if err != nil {
			t.Fatalf("DecodeRow(%q): %v", line, err)
		}
		if !got.Identical(r) {
			t.Errorf("round trip %v -> %q -> %v", r, line, got)
		}
	}
}

// TestDecodeColsIntoSlab: decoding several lines into the tail of one slab
// — each row built in place where the previous one ends, as a reducer
// decodes a key group — yields, window by window, what DecodeRow yields line
// by line (empty line, empty fields and a trailing tab included), and never
// touches earlier windows.
func TestDecodeColsIntoSlab(t *testing.T) {
	lines := []string{"1\t2.5\tx", "", "\\N", "a\t", "\t", "true\t-7"}
	slab := make(Row, 0, 16)
	var windows [][2]int
	for _, line := range lines {
		start := len(slab)
		row, err := DecodeColsInto(slab[start:cap(slab)], line, nullSchema(fieldsOf(line)), nil)
		if err != nil {
			t.Fatalf("DecodeColsInto(%q): %v", line, err)
		}
		slab = slab[:start+len(row)]
		windows = append(windows, [2]int{start, len(slab)})
	}
	for i, line := range lines {
		want, err := decodeNullCols(line)
		if err != nil {
			t.Fatal(err)
		}
		got := slab[windows[i][0]:windows[i][1]]
		if !got.Identical(want) {
			t.Errorf("line %q: slab window %v, DecodeRow %v", line, got, want)
		}
	}
	if _, err := DecodeColsInto(slab[len(slab):cap(slab)], "bad\\q", nullSchema(1), nil); err == nil {
		t.Error("DecodeColsInto accepted an unknown escape")
	}
}

// TestZeroColumnSchema: the empty line is the empty row to a zero-column
// schema and one empty string to a one-column STRING schema — the schema,
// not the text, settles which — for DecodeRow and ScanRow alike.
func TestZeroColumnSchema(t *testing.T) {
	none, one := NewSchema(), NewSchema(Column{Name: "s", Type: TypeString})
	noField := func(int, string, string, bool) error { return nil }
	if got, err := DecodeRow("", none); err != nil || got == nil || len(got) != 0 {
		t.Errorf("zero columns, empty line: %v, %v; want the empty row", got, err)
	}
	if err := ScanRow("", none, noField); err != nil {
		t.Errorf("ScanRow, zero columns, empty line: %v", err)
	}
	if got, err := DecodeRow("", one); err != nil || !got.Identical(Row{Str("")}) {
		t.Errorf("one STRING column, empty line: %v, %v; want ['']", got, err)
	}
	for _, line := range []string{"x", "\t"} {
		if _, err := DecodeRow(line, none); err == nil || !strings.Contains(err.Error(), "fields") {
			t.Errorf("zero columns, line %q: err = %v, want a field-count error", line, err)
		}
		if err := ScanRow(line, none, noField); err == nil || !strings.Contains(err.Error(), "fields") {
			t.Errorf("ScanRow, zero columns, line %q: err = %v, want a field-count error", line, err)
		}
	}
}

func TestDecodeRowFieldCountMismatch(t *testing.T) {
	s := NewSchema(Column{Name: "a", Type: TypeInt})
	if _, err := DecodeRow("1\t2", s); err == nil {
		t.Error("want field-count error")
	}
}

// Property: EncodeRow and a decode over TypeNull columns round-trip any row
// of random values (strings that look like numbers excepted — such columns
// infer the type from syntax; typed decoding is checked below).
func TestUntypedRoundTripProperty(t *testing.T) {
	f := func(g1, g2, g3 valueGen) bool {
		row := Row{g1.V, g2.V, g3.V}
		line := EncodeRow(row)
		got, err := decodeNullCols(line)
		if err != nil {
			return false
		}
		if len(got) != len(row) {
			return false
		}
		for i := range row {
			want := row[i]
			// A string whose text parses as a number/bool/null legitimately
			// decodes as that type in a TypeNull column; skip those.
			if want.T == TypeString && looksTyped(want.S) {
				continue
			}
			if got[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func looksTyped(s string) bool {
	if s == "" || s == "true" || s == "false" {
		return true
	}
	v, err := DecodeField(EncodeField(Str(s)), TypeNull)
	return err == nil && v.T != TypeString
}

// Property: typed round trip is exact for schema-typed rows.
func TestTypedRoundTripProperty(t *testing.T) {
	schema := NewSchema(
		Column{Name: "i", Type: TypeInt},
		Column{Name: "f", Type: TypeFloat},
		Column{Name: "s", Type: TypeString},
		Column{Name: "b", Type: TypeBool},
	)
	gen := func(r *rand.Rand, typ Type) Value {
		if r.Intn(8) == 0 {
			return Null()
		}
		switch typ {
		case TypeInt:
			return Int(r.Int63n(1e6) - 5e5)
		case TypeFloat:
			return Float(float64(r.Int63n(1e6)-5e5) / 16)
		case TypeString:
			return randomStringValue(r)
		default:
			return Bool(r.Intn(2) == 0)
		}
	}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3000; trial++ {
		row := Row{
			gen(r, TypeInt), gen(r, TypeFloat), gen(r, TypeString), gen(r, TypeBool),
		}
		line := EncodeRow(row)
		got, err := DecodeRow(line, schema)
		if err != nil {
			t.Fatalf("trial %d: DecodeRow(%q): %v", trial, line, err)
		}
		if !got.Identical(row) {
			t.Fatalf("trial %d: %v -> %q -> %v", trial, row, line, got)
		}
	}
}

func randomStringValue(r *rand.Rand) Value {
	alphabet := []string{"a", "b", "\t", "\n", "\r", `\`, `\N`, "N", "0", "1.5", " "}
	n := r.Intn(6)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(alphabet[r.Intn(len(alphabet))])
	}
	return Str(sb.String())
}

// Property: the key encoding is injective — different value lists never
// produce the same key.
func TestEncodeKeyInjective(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	seen := make(map[string]Row)
	for trial := 0; trial < 5000; trial++ {
		n := 1 + r.Intn(3)
		row := make(Row, n)
		for i := range row {
			row[i] = randomValue(r)
		}
		key := EncodeKey(row)
		if prev, ok := seen[key]; ok {
			if !prev.Identical(row) {
				t.Fatalf("collision: %v and %v both encode to %q", prev, row, key)
			}
			continue
		}
		seen[key] = row.Clone()
	}
}

// tpchLineitem is TPC-H's 16-column lineitem layout, the widest row the
// paper's workload scans.
var tpchLineitem = NewSchema(
	Column{Table: "l", Name: "l_orderkey", Type: TypeInt},
	Column{Table: "l", Name: "l_partkey", Type: TypeInt},
	Column{Table: "l", Name: "l_suppkey", Type: TypeInt},
	Column{Table: "l", Name: "l_linenumber", Type: TypeInt},
	Column{Table: "l", Name: "l_quantity", Type: TypeFloat},
	Column{Table: "l", Name: "l_extendedprice", Type: TypeFloat},
	Column{Table: "l", Name: "l_discount", Type: TypeFloat},
	Column{Table: "l", Name: "l_tax", Type: TypeFloat},
	Column{Table: "l", Name: "l_returnflag", Type: TypeString},
	Column{Table: "l", Name: "l_linestatus", Type: TypeString},
	Column{Table: "l", Name: "l_shipdate", Type: TypeString},
	Column{Table: "l", Name: "l_commitdate", Type: TypeString},
	Column{Table: "l", Name: "l_receiptdate", Type: TypeString},
	Column{Table: "l", Name: "l_shipinstruct", Type: TypeString},
	Column{Table: "l", Name: "l_shipmode", Type: TypeString},
	Column{Table: "l", Name: "l_comment", Type: TypeString},
)

const tpchLineitemLine = "1\t1552\t93\t1\t17.0\t24710.35\t0.04\t0.02\tN\tO\t1996-03-13\t1996-02-12\t1996-03-22\tDELIVER IN PERSON\tTRUCK\tegular courts above the"

// TestAllocBudgetCodec pins the codec's allocation counts: they are what
// the append-style encoders and the demand-driven decoder exist for, and
// they are deterministic, so they can gate.
func TestAllocBudgetCodec(t *testing.T) {
	row, err := DecodeRow(tpchLineitemLine, tpchLineitem)
	if err != nil {
		t.Fatal(err)
	}
	// Every field of the line is canonical, so a warm decode of it is
	// CutField's scan alone: each number is read by the scan and keeps its
	// field as its text, and each string is its field.
	for i, v := range row {
		if v.IsNumeric() && v.S == "" {
			t.Fatalf("column %d (%v) of the lineitem line kept no text: not the path this test is about", i, v)
		}
	}
	demand := []int{0, 1, 4, 5} // l_orderkey, l_partkey, l_quantity, l_extendedprice
	slab := make(Row, 0, len(row))
	tail := make(Row, 2*len(row)) // a reducer's slab, one row already decoded
	untyped := nullSchema(len(row))
	scratch := make(Row, len(demand))
	buf := make([]byte, 0, 2*len(tpchLineitemLine))
	budgets := []struct {
		name string
		max  float64
		fn   func()
	}{
		{"EncodeRow", 1, func() { sinkString = EncodeRow(row) }},
		{"EncodeKey", 1, func() { sinkString = EncodeKey(row[:2]) }},
		{"DecodeRow", 1, func() { sinkRow, _ = DecodeRow(tpchLineitemLine, tpchLineitem) }},
		{"DecodeColsInto a fresh row, 4 numeric columns", 1, func() { sinkRow, _ = DecodeColsInto(nil, tpchLineitemLine, tpchLineitem, demand) }},
		{"DecodeColsInto a scratch row", 0, func() { sinkRow, _ = DecodeColsInto(scratch, tpchLineitemLine, tpchLineitem, demand) }},
		{"DecodeColsInto a scratch row, every column (canonical INT, FLOAT and STRING fields)", 0, func() { sinkRow, _ = DecodeColsInto(slab, tpchLineitemLine, tpchLineitem, nil) }},
		{"AppendRow of a decoded row into a buffer with room", 0, func() { buf = AppendRow(buf[:0], row) }},
		{"DecodeRow over TypeNull columns", 1, func() { sinkRow, _ = DecodeRow(tpchLineitemLine, untyped) }},
		{"DecodeColsInto the tail of a slab", 0, func() { sinkRow, _ = DecodeColsInto(tail[len(row):], tpchLineitemLine, tpchLineitem, nil) }},
	}
	// A string field in a TypeNull column must not cost a parser's error value,
	// whatever number-like bytes it carries.
	for _, field := range []string{"DELIVER IN PERSON", "3-MEDIUM", "1996-03-13", "Clerk#000000951", "e", ".", "-", "+Infinite", "NaNs"} {
		field := field
		budgets = append(budgets, struct {
			name string
			max  float64
			fn   func()
		}{"TypeNull decode of " + field, 0, func() { sinkValue, _ = DecodeField(field, TypeNull) }})
	}
	for _, b := range budgets {
		if got := testing.AllocsPerRun(200, b.fn); got > b.max {
			t.Errorf("%s: %v allocations per run, budget %v", b.name, got, b.max)
		}
	}
}

var (
	sinkString string
	sinkRow    Row
	sinkValue  Value
)

// TestDecodeColsLazyContract pins what a demand-driven decode vouches for:
// the line's field count always, the listed columns' syntax, and nothing
// about the columns it was not asked to read (Hive's lazy SerDe and
// MANIMAL's projection behave the same way).
func TestDecodeColsLazyContract(t *testing.T) {
	s := NewSchema(
		Column{Table: "t", Name: "a", Type: TypeInt},
		Column{Table: "t", Name: "b", Type: TypeFloat},
		Column{Table: "t", Name: "c", Type: TypeString},
		Column{Table: "t", Name: "d", Type: TypeInt},
	)
	got, err := DecodeColsInto(nil, "1\t2.5\tx\t4", s, []int{0, 3})
	if err != nil || !got.Identical(Row{Int(1), Int(4)}) {
		t.Fatalf("DecodeColsInto = %v, %v; want [1 4]", got, err)
	}
	if got, err := DecodeColsInto(nil, "1\t2.5\tx\t4", s, []int{}); err != nil || len(got) != 0 {
		t.Errorf("empty demand = %v, %v; want an empty row", got, err)
	}

	// A malformed column nobody demanded is not parsed.
	got, err = DecodeColsInto(nil, "1\tnot-a-float\tx\t4", s, []int{0, 3})
	if err != nil || !got.Identical(Row{Int(1), Int(4)}) {
		t.Errorf("malformed undemanded column: got %v, %v; want [1 4]", got, err)
	}
	// The full decode of the same line still rejects it.
	if _, err := DecodeRow("1\tnot-a-float\tx\t4", s); err == nil {
		t.Error("DecodeRow accepted a malformed float")
	}

	// A malformed demanded column is an error naming the column.
	_, err = DecodeColsInto(nil, "1\t2.5\tx\tfour", s, []int{0, 3})
	if err == nil || !strings.Contains(err.Error(), "column t.d") {
		t.Errorf("malformed demanded column: err = %v, want one naming t.d", err)
	}

	// The field count is checked however little is demanded — short and
	// long lines, and whether or not the demanded fields are present.
	for _, line := range []string{"1\t2.5\tx", "1\t2.5\tx\t4\t5", "1", ""} {
		for _, cols := range [][]int{nil, {}, {0}, {3}, {0, 3}} {
			_, err := DecodeColsInto(nil, line, s, cols)
			if err == nil || !strings.Contains(err.Error(), "fields") {
				t.Errorf("DecodeColsInto(nil, %q, %v): err = %v, want a field-count error", line, cols, err)
			}
		}
	}
	// A wrong field count outranks a malformed demanded column, as in
	// DecodeRow.
	_, err = DecodeColsInto(nil, "one\t2.5\tx", s, []int{0})
	if err == nil || !strings.Contains(err.Error(), "fields") {
		t.Errorf("short line with a malformed column: err = %v, want a field-count error", err)
	}
}

// TestDecodedNumbersKeepText: a number DecodeColsInto reads from a
// canonical field keeps the field, viewed from the line, as its text, and
// AppendField copies it; a field the grammar refuses is parsed and keeps
// none. A float zero's key drops the text with the sign, and arithmetic on
// a decoded number builds one without text.
func TestDecodedNumbersKeepText(t *testing.T) {
	s := NewSchema(Column{Name: "i", Type: TypeInt}, Column{Name: "x", Type: TypeFloat})
	cases := []struct {
		line   string
		want   Row
		kept   [2]bool
		key    string
		render string
	}{
		{"-42\t5.0", Row{Int(-42), Float(5)}, [2]bool{true, true}, "-42\t5.0", "-42\t5.0"},
		{"7\t-0.0", Row{Int(7), Float(math.Copysign(0, -1))}, [2]bool{true, true}, "7\t0.0", "7\t-0.0"},
		{"0\t0.0001", Row{Int(0), Float(0.0001)}, [2]bool{true, true}, "0\t0.0001", "0\t0.0001"},
		{"007\t1.50", Row{Int(7), Float(1.5)}, [2]bool{false, false}, "7\t1.5", "7\t1.5"},
		{"+5\t-0", Row{Int(5), Float(math.Copysign(0, -1))}, [2]bool{false, false}, "5\t0.0", "5\t-0.0"},
		{"1000000000000000000\t1e3", Row{Int(1e18), Float(1000)}, [2]bool{false, false}, "1000000000000000000\t1000.0", "1000000000000000000\t1000.0"},
	}
	for _, c := range cases {
		got, err := DecodeRow(c.line, s)
		if err != nil {
			t.Fatalf("DecodeRow(%q): %v", c.line, err)
		}
		if !got.Identical(c.want) {
			t.Errorf("DecodeRow(%q) = %v, want %v", c.line, got, c.want)
		}
		off := 0 // where column i's field starts in the line
		for i, v := range got {
			field := strings.Split(c.line, "\t")[i]
			switch {
			case c.kept[i] && v.S != field:
				t.Errorf("%q column %d: kept text %q, want the field %q", c.line, i, v.S, field)
			case c.kept[i] && unsafe.StringData(v.S) != unsafe.StringData(c.line[off:]):
				t.Errorf("%q column %d: kept text is a copy, not a view of the line", c.line, i)
			case !c.kept[i] && v.S != "":
				t.Errorf("%q column %d: refused field kept text %q", c.line, i, v.S)
			}
			off += len(field) + 1
		}
		if enc := EncodeRow(got); enc != c.render {
			t.Errorf("EncodeRow(DecodeRow(%q)) = %q, want %q", c.line, enc, c.render)
		}
		if key := EncodeKey(got); key != c.key {
			t.Errorf("EncodeKey(DecodeRow(%q)) = %q, want %q", c.line, key, c.key)
		}
		var sum Acc
		sum.Reset(AggSum)
		sum.Add(got[1])
		sum.Add(got[1])
		if r := sum.Result(); r.S != "" || !r.Identical(Float(0+got[1].F+got[1].F)) {
			t.Errorf("SUM of %v twice = %#v, want a value without text", got[1], r)
		}
	}
}

// TestIdentical: the equality tests compare values by tells what Compare
// does not — -0.0 from 0.0, a NaN from a number, an INT from an equal FLOAT
// — ignores a number's kept text when it spells the number, and refuses a
// number whose kept text does not.
func TestIdentical(t *testing.T) {
	negZero := Float(math.Copysign(0, -1))
	differ := [][2]Value{
		{Float(0), negZero},
		{Float(math.NaN()), Float(1)},
		{Int(1), Float(1)},
		{Str(""), Null()},
		{Bool(true), Bool(false)},
		{Str("a"), Str("b")},
		{Value{T: TypeInt, I: 7, S: "007"}, Int(7)},
		{Value{T: TypeFloat, F: 5, S: "5"}, Float(5)},
		{Value{T: TypeFloat, F: 1.5, S: "1.50"}, Value{T: TypeFloat, F: 1.5, S: "1.50"}},
	}
	for _, d := range differ {
		if d[0].Identical(d[1]) || d[1].Identical(d[0]) {
			t.Errorf("%#v and %#v are identical", d[0], d[1])
		}
	}
	same := [][2]Value{
		{Float(math.NaN()), Float(math.NaN())},
		{negZero, Value{T: TypeFloat, F: math.Copysign(0, -1), S: "-0.0"}},
		{Value{T: TypeFloat, F: 5, S: "5.0"}, Float(5)},
		{Value{T: TypeInt, I: -3, S: "-3"}, Int(-3)},
		{Null(), Null()},
	}
	for _, d := range same {
		if !d[0].Identical(d[1]) || !d[1].Identical(d[0]) {
			t.Errorf("%#v and %#v are not identical", d[0], d[1])
		}
	}
}
