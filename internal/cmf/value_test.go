package cmf

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ysmart/internal/exec"
)

// at puts schema at index input of an input-schema table, so a tagged value
// of that input decodes by it.
func at(input int, schema *exec.Schema) []*exec.Schema {
	schemas := make([]*exec.Schema, input+1)
	schemas[input] = schema
	return schemas
}

func TestEncodeDecodeTagged(t *testing.T) {
	tests := []struct {
		name     string
		input    int
		excluded []int
		schema   *exec.Schema
		row      exec.Row
		wantRaw  string
	}{
		{"no exclusions", 0, nil, typed(exec.TypeInt, exec.TypeString), exec.Row{exec.Int(1), exec.Str("x")}, "0|1\tx"},
		{"one exclusion", 1, []int{3}, ints(1), exec.Row{exec.Int(7)}, "1!3|7"},
		{"many exclusions", 2, []int{1, 4, 9}, ints(1), exec.Row{exec.Null()}, `2!1,4,9|\N`},
		{"empty row", 0, nil, typed(), exec.Row{}, "0|"},
		{"empty string", 0, nil, typed(exec.TypeString), exec.Row{exec.Str("")}, "0|"},
		{"digits in a string", 0, nil, typed(exec.TypeString, exec.TypeString), exec.Row{exec.Str("007"), exec.Str("true")}, "0|007\ttrue"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			enc := EncodeTagged(tt.input, tt.excluded, tt.row)
			if enc != tt.wantRaw {
				t.Errorf("encoded %q, want %q", enc, tt.wantRaw)
			}
			tv, err := appendTagged(enc, at(tt.input, tt.schema), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tv.Input != tt.input {
				t.Errorf("input = %d, want %d", tv.Input, tt.input)
			}
			if !reflect.DeepEqual(tv.Excluded, tt.excluded) {
				t.Errorf("excluded = %v, want %v", tv.Excluded, tt.excluded)
			}
			if !reflect.DeepEqual(tv.Row, tt.row) {
				t.Errorf("row = %v, want %v", tv.Row, tt.row)
			}
		})
	}
}

func TestDecodeTaggedErrors(t *testing.T) {
	schemas := []*exec.Schema{ints(1)}
	for _, s := range []string{"", "noseparator", "x|row", "0!a|row", "1|7", "-1|7", "0|row", "0|1\t2", "0|"} {
		if _, err := appendTagged(s, schemas, nil, nil); err == nil {
			t.Errorf("appendTagged(%q) succeeded, want error", s)
		}
	}
}

func TestSees(t *testing.T) {
	tv := TaggedValue{Excluded: []int{2, 5}}
	if tv.Sees(2) || tv.Sees(5) {
		t.Error("excluded streams must not see the value")
	}
	if !tv.Sees(1) || !tv.Sees(3) {
		t.Error("other streams must see the value")
	}
}

// Property: round trip preserves input index and exclusion list for random
// shapes.
func TestTaggedRoundTripProperty(t *testing.T) {
	schemas := make([]*exec.Schema, 256)
	for i := range schemas {
		schemas[i] = ints(2)
	}
	f := func(input uint8, exclRaw []uint8, a, b int32) bool {
		var excluded []int
		seen := map[int]bool{}
		for _, e := range exclRaw {
			if !seen[int(e)] {
				seen[int(e)] = true
				excluded = append(excluded, int(e))
			}
		}
		row := exec.Row{exec.Int(int64(a)), exec.Int(int64(b))}
		tv, err := appendTagged(EncodeTagged(int(input), excluded, row), schemas, nil, nil)
		if err != nil {
			return false
		}
		if tv.Input != int(input) || !reflect.DeepEqual(tv.Excluded, excluded) {
			return false
		}
		return tv.Row[0].I == int64(a) && tv.Row[1].I == int64(b)
	}
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestAppendTagSplitTag(t *testing.T) {
	line := string(append(AppendTag(nil, "JOIN1"), "1\t2"...))
	tag, payload := SplitTag(line)
	if tag != "JOIN1" || payload != "1\t2" {
		t.Errorf("SplitTag = (%q, %q)", tag, payload)
	}
	if got := AppendTag([]byte("x"), ""); string(got) != "x" {
		t.Errorf("empty tag appended %q, want nothing", got[1:])
	}
	tag, payload = SplitTag("plain")
	if tag != "" || payload != "plain" {
		t.Errorf("untagged SplitTag = (%q, %q)", tag, payload)
	}
}
