package exec

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// canonicalText is CutField's verdict on one field: its copy text and
// whether it is canonical. A string holding a tab is not one field, and is
// refused.
func canonicalText(field string, typ Type) (string, bool) {
	_, text, ok, _, found := CutField(field, typ)
	if found {
		return "", false
	}
	return text, ok
}

// checkCanonical holds CutField's grammar to DecodeField + Value.String on one
// field: where it accepts, the field decodes to a non-NULL value whose text
// is the accepted bytes, and an accepted number is the very field AppendField
// writes for that value. It reports whether the field was accepted.
func checkCanonical(t testing.TB, field string, typ Type) bool {
	t.Helper()
	text, ok := canonicalText(field, typ)
	if !ok {
		if text != "" {
			t.Fatalf("CutField(%q, %v) refused but returned %q", field, typ, text)
		}
		return false
	}
	v, err := DecodeField(field, typ)
	if err != nil || v.IsNull() {
		t.Fatalf("CutField(%q, %v) accepted a field that decodes to %v, %v", field, typ, v, err)
	}
	if want := v.String(); text != want {
		t.Fatalf("CutField(%q, %v) = %q, parse-then-render gives %q", field, typ, text, want)
	}
	if typ != TypeString {
		if enc := EncodeField(v); enc != field {
			t.Fatalf("CutField(%q, %v) accepted a field AppendField spells %q", field, typ, enc)
		}
	}
	return true
}

// canonicalTextReference is CutField's grammar as two passes over a field
// already cut from its line, the form CutField's single scan replaced;
// FuzzCutField and checkMutated hold the scan to it.
func canonicalTextReference(field string, t Type) (string, bool) {
	switch t {
	case TypeInt:
		digits := strings.TrimPrefix(field, "-")
		if digits == "" || len(digits) > 18 || !allDigits(digits) || digits[0] == '0' && field != "0" {
			return "", false
		}
		return field, true
	case TypeFloat:
		return canonicalFloatReference(field)
	case TypeString:
		if strings.IndexByte(field, '\\') < 0 {
			return field, true
		}
	}
	return "", false
}

// canonicalFloatReference is canonicalTextReference's TypeFloat grammar.
func canonicalFloatReference(field string) (string, bool) {
	body := strings.TrimPrefix(field, "-")
	intPart, frac, ok := strings.Cut(body, ".")
	if !ok || intPart == "" || len(intPart) > 6 || !allDigits(intPart) ||
		(intPart[0] == '0' && intPart != "0") || frac == "" || !allDigits(frac) {
		return "", false
	}
	if frac == "0" {
		return field[:len(field)-2], true
	}
	if frac[len(frac)-1] == '0' {
		return "", false
	}
	sig := len(intPart) + len(frac)
	if intPart == "0" {
		zeros := len(frac) - len(strings.TrimLeft(frac, "0"))
		if zeros > 3 {
			return "", false
		}
		sig = len(frac) - zeros
	}
	if sig > 15 {
		return "", false
	}
	return field, true
}

// checkCutField holds CutField(s, typ) to strings.Cut(s, "\t") followed by
// canonicalTextReference on the field, byte for byte.
func checkCutField(t testing.TB, s string, typ Type) {
	t.Helper()
	field, text, ok, rest, found := CutField(s, typ)
	wantField, wantRest, wantFound := strings.Cut(s, "\t")
	if field != wantField || rest != wantRest || found != wantFound {
		t.Fatalf("CutField(%q, %v) cuts %q | %q, %v; strings.Cut gives %q | %q, %v", s, typ, field, rest, found, wantField, wantRest, wantFound)
	}
	if wantText, wantOK := canonicalTextReference(wantField, typ); text != wantText || ok != wantOK {
		t.Fatalf("CutField(%q, %v) = %q, %v; the two-pass grammar gives %q, %v", s, typ, text, ok, wantText, wantOK)
	}
}

// canonicalTypes are the column types every field is tried under: the three
// the grammar covers and three it refuses outright.
var canonicalTypes = []Type{TypeInt, TypeFloat, TypeString, TypeBool, TypeNull, Type(0)}

// checkMutated checks a field and its near misses under every type: leading
// and trailing zeros, a sign added or dropped, the first or last byte cut,
// and the integer part, fraction and point taken apart.
func checkMutated(t testing.TB, field string) {
	t.Helper()
	muts := []string{field, "0" + field, field + "0", "+" + field, "-" + field, "00" + field}
	if len(field) > 1 {
		muts = append(muts, field[1:], field[:len(field)-1])
	}
	if i := strings.IndexByte(field, '.'); i >= 0 {
		muts = append(muts, field[:i], field[i:], field[:i+1], field[:i]+"0"+field[i:], field+"e+06")
	}
	for _, m := range muts {
		for _, typ := range canonicalTypes {
			checkCanonical(t, m, typ)
			checkCutField(t, m, typ)
			checkCutField(t, m+"\t"+field, typ)
		}
	}
}

// digitString draws n decimal digits, the first not 0.
func digitString(r *rand.Rand, n int) string {
	b := make([]byte, n)
	b[0] = byte('1' + r.Intn(9))
	for i := 1; i < n; i++ {
		b[i] = byte('0' + r.Intn(10))
	}
	return string(b)
}

// TestCanonicalTextMatchesParse: wherever CutField accepts a field, its
// bytes are DecodeField + Value.String's, over prices, normal and random-bit
// floats, the F-form range's edges, decimals of 15 to 17 significant digits,
// integers and strings, each with its mutations — and the fields a plan
// writes for prices and integers are all accepted, so the fast path is not
// vacuous.
func TestCanonicalTextMatchesParse(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	n := 2000
	if testing.Short() {
		n = 400
	}
	mustAccept := func(field string, typ Type) {
		t.Helper()
		if !checkCanonical(t, field, typ) {
			t.Fatalf("CutField(%q, %v) refused a canonical field", field, typ)
		}
		checkMutated(t, field)
	}

	for i := 0; i < n; i++ {
		// Two-decimal prices, and quantity × price / 100 as datagen builds them.
		price := float64(r.Int63n(100_000_000)) / 100
		mustAccept(EncodeField(Float(price)), TypeFloat)
		mustAccept(EncodeField(Float(-price)), TypeFloat)
		mustAccept(EncodeField(Float(float64(1+r.Intn(50))*float64(900+r.Intn(100000))/100)), TypeFloat)

		// Integers below 1e18, any magnitude; 19 digits only as near misses.
		mustAccept(EncodeField(Int(r.Int63n(1e18)>>uint(r.Intn(60)))), TypeInt)
		mustAccept(EncodeField(Int(-r.Int63n(1e18)>>uint(r.Intn(60)))), TypeInt)
		checkMutated(t, EncodeField(Int(r.Int63())))

		checkMutated(t, EncodeField(Float(r.NormFloat64()*math.Pow(10, float64(r.Intn(16)-6)))))
		checkMutated(t, EncodeField(Float(math.Float64frombits(r.Uint64()))))

		// 15, 16 and 17 significant digits, the point anywhere the F-form
		// grammar reaches and a little beyond.
		for _, sig := range []int{15, 16, 17} {
			digits := digitString(r, sig)
			var field string
			if at := r.Intn(11) - 4; at <= 0 {
				field = "0." + strings.Repeat("0", -at) + digits
			} else {
				field = digits[:at] + "." + digits[at:]
			}
			checkMutated(t, field)
			if f, err := strconv.ParseFloat(field, 64); err == nil {
				checkMutated(t, EncodeField(Float(f)))
			}
		}
	}

	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64, -math.MaxFloat64}
	for e := -6; e <= 8; e++ {
		p := math.Pow(10, float64(e))
		special = append(special, p, -p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
	}
	for _, f := range special {
		checkMutated(t, EncodeField(Float(f)))
	}
	for _, i := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 999_999_999_999_999_999, -999_999_999_999_999_999, 1e18} {
		checkMutated(t, EncodeField(Int(i)))
	}
	for _, s := range []string{"", "DELIVER IN PERSON", "Clerk#000000042", `a\tb`, `back\\slash`, `\N`, "NULL", "h\xc3\xa9llo", "line\nbreak"} {
		checkMutated(t, s)
		checkMutated(t, EncodeField(Str(s)))
	}
}

// TestCanonicalTextGrammar pins the grammar's edges, one field each side.
func TestCanonicalTextGrammar(t *testing.T) {
	cases := []struct {
		typ   Type
		field string
		text  string // "" with ok false: refused
		ok    bool
	}{
		{TypeInt, "0", "0", true},
		{TypeInt, "-7", "-7", true},
		{TypeInt, "999999999999999999", "999999999999999999", true},
		{TypeInt, "-999999999999999999", "-999999999999999999", true},
		{TypeInt, "1000000000000000000", "", false}, // 19 digits: parsed, range-checked
		{TypeInt, "-0", "", false},
		{TypeInt, "007", "", false},
		{TypeInt, "+5", "", false},
		{TypeInt, "-", "", false},
		{TypeInt, "", "", false},
		{TypeInt, `\N`, "", false},

		{TypeFloat, "0.0", "0", true},
		{TypeFloat, "-0.0", "-0", true},
		{TypeFloat, "999999.0", "999999", true},
		{TypeFloat, "-120000.0", "-120000", true},
		{TypeFloat, "1000000.0", "", false}, // 1e+06
		{TypeFloat, "1234567.5", "", false},
		{TypeFloat, "0.0001", "0.0001", true},
		{TypeFloat, "-0.000123", "-0.000123", true},
		{TypeFloat, "0.00001", "", false}, // 1e-05
		{TypeFloat, "24710.35", "24710.35", true},
		{TypeFloat, "123456.789012345", "123456.789012345", true},
		{TypeFloat, "0.000123456789012345", "0.000123456789012345", true},
		{TypeFloat, "123456.7890123456", "", false}, // 16 significant digits
		{TypeFloat, "8.000000000000001", "", false}, // 16 digits, parses to 8.000000000000002
		{TypeFloat, "0.10", "", false},
		{TypeFloat, "00.5", "", false},
		{TypeFloat, "00.0", "", false},
		{TypeFloat, "+1.5", "", false},
		{TypeFloat, ".5", "", false},
		{TypeFloat, "5.", "", false},
		{TypeFloat, "5", "", false},
		{TypeFloat, "1e+06", "", false},
		{TypeFloat, "NaN", "", false},
		{TypeFloat, "+Inf", "", false},
		{TypeFloat, `\N`, "", false},

		{TypeString, "", "", true},
		{TypeString, "DELIVER IN PERSON", "DELIVER IN PERSON", true},
		{TypeString, `a\tb`, "", false},
		{TypeString, `\N`, "", false},

		{TypeBool, "true", "", false},
		{TypeNull, "5", "", false},
	}
	for _, c := range cases {
		text, ok := canonicalText(c.field, c.typ)
		if text != c.text || ok != c.ok {
			t.Errorf("CutField(%q, %v) = %q, %v; want %q, %v", c.field, c.typ, text, ok, c.text, c.ok)
		}
		checkCanonical(t, c.field, c.typ)
		checkCutField(t, c.field+"\tnext", c.typ)
	}
}

// FuzzCanonicalText: for any field and column type, an accepted field's
// bytes are DecodeField + Value.String's, and an accepted number is spelled
// as AppendField writes it.
func FuzzCanonicalText(f *testing.F) {
	for _, s := range []string{"0", "-0", "007", "-0.0", "00.0", ".5", "5.", "1e+06", "999999.0", "1000000.0",
		"0.0001", "0.00001", "0.10", "123456.789012345", "123456.7890123456", "8.000000000000001", "1234567.5", "a\\tb", `\N`} {
		f.Add(s, byte(TypeInt))
		f.Add(s, byte(TypeFloat))
		f.Add(s, byte(TypeString))
	}
	f.Fuzz(func(t *testing.T, field string, typ byte) {
		checkCanonical(t, field, Type(typ%7))
	})
}

// FuzzCutField: for any line and column type, the one-pass scan cuts the
// first field where strings.Cut does and judges it as the two-pass grammar
// does.
func FuzzCutField(f *testing.F) {
	for _, s := range []string{"007", "+5", "-0", "-0.0", "1.50", "0.00001", "1234567.5",
		"999999999999999999", "1000000000000000000", "10000000000000000000",
		"-999999999999999999", "0", "0.0001", "24710.35", "a\\tb", `\N`, "", "\t", "-", "5."} {
		for _, line := range []string{s, s + "\t", s + "\tx\t1", s + "x\t"} {
			f.Add(line, byte(TypeInt))
			f.Add(line, byte(TypeFloat))
			f.Add(line, byte(TypeString))
		}
	}
	f.Fuzz(func(t *testing.T, line string, typ byte) {
		checkCutField(t, line, Type(typ%7))
	})
}
