package cmf

import (
	"fmt"
	"sync"
	"testing"

	"ysmart/internal/exec"
)

// decoderSchema types the payloads of TestDecoder's lines.
var decoderSchema = typed(exec.TypeInt, exec.TypeString, exec.TypeInt)

// decoderStages keep a decoded (c0, c2) row whose c0 exceeds 1, then
// project it to (c2 * 10, c0).
var decoderStages = []Stage{
	{Pred: func(r exec.Row) (bool, error) { return r[0].I > 1, nil }},
	{Exprs: []exec.Evaluator{
		func(r exec.Row) (exec.Value, error) { return exec.Int(r[1].I * 10), nil },
		col(0),
	}},
}

// decodeLine runs one line through d in scratch and renders the result:
// the row's codec text, "dropped" for a nil row, or the error.
func decodeLine(d *Decoder, scratch *exec.Row, line string) string {
	row, err := d.Decode(scratch, line)
	switch {
	case err != nil:
		return "error: " + err.Error()
	case row == nil:
		return "dropped"
	}
	return string(exec.AppendRow(nil, row))
}

// TestDecoder is the line plan's table: the tag cut, the column demand,
// and a filter then a projection. Every line goes through a fresh scratch
// and through one scratch that every earlier line, kept or dropped, used
// before it, with the same result.
func TestDecoder(t *testing.T) {
	tagged := func(tag, payload string) string { return string(AppendTag(nil, tag)) + payload }
	all := NewDecoder("J1", decoderSchema, nil, nil)
	plan := NewDecoder("", decoderSchema, []int{0, 2}, decoderStages)
	tests := []struct {
		name string
		dec  *Decoder
		line string
		want string
	}{
		{"own tag", all, tagged("J1", "1\tx\t3"), "1\tx\t3"},
		{"foreign tag", all, tagged("J2", "1\tx\t3"), "dropped"},
		{"tag that only starts with the own tag", all, tagged("J12", "1\tx\t3"), "dropped"},
		{"bare line under a tag", all, "1\tx\t3", "dropped"},
		{"empty tag takes a line holding the separator whole", NewDecoder("", decoderSchema, nil, nil),
			"1\ta" + outputTagSep + "b\t3", "1\ta" + outputTagSep + "b\t3"},
		{"demanded columns", NewDecoder("", decoderSchema, []int{0, 2}, nil), "1\tx\t3", "1\t3"},
		{"an unread field goes unparsed", NewDecoder("", decoderSchema, []int{1}, nil), "one\tx\t3", "x"},
		{"a demanded field is parsed", NewDecoder("", decoderSchema, []int{0}, nil), "one\tx\t3",
			`error: column c0: parse int field "one": strconv.ParseInt: parsing "one": invalid syntax`},
		{"wrong field count", all, tagged("J1", "1\tx"), "error: row has 2 fields, schema (c0 int, c1 string, c2 int) has 3"},
		{"filter keeps, projection computes", plan, "2\tx\t3", "30\t2"},
		{"filter drops", plan, "1\tx\t3", "dropped"},
		{"tag, demand and stages", NewDecoder("J1", decoderSchema, []int{0, 2}, decoderStages),
			tagged("J1", "5\tx\t4"), "40\t5"},
	}
	var shared exec.Row
	for _, tt := range tests {
		var fresh exec.Row
		if got := decodeLine(tt.dec, &fresh, tt.line); got != tt.want {
			t.Errorf("%s: decoded %q to %q, want %q", tt.name, tt.line, got, tt.want)
		}
		if got := decodeLine(tt.dec, &shared, tt.line); got != tt.want {
			t.Errorf("%s: through a used scratch, decoded %q to %q, want %q", tt.name, tt.line, got, tt.want)
		}
	}
}

// TestDecoderScratch: one scratch row serves every line of an instance.
// The first line sizes it, although the filter drops that line; later
// lines, kept or dropped, neither move nor grow it and allocate nothing,
// and a kept row is the projection laid right after the decoded row.
func TestDecoderScratch(t *testing.T) {
	d := NewDecoder("", decoderSchema, []int{0, 2}, decoderStages)
	var scratch exec.Row
	if got := decodeLine(d, &scratch, "1\tx\t3"); got != "dropped" {
		t.Fatalf("first line decoded to %q, want it dropped", got)
	}
	if len(scratch) != 4 {
		t.Fatalf("first line sized the scratch to %d values, want 4: two decoded, two projected", len(scratch))
	}
	base := &scratch[0]
	for _, line := range []string{"2\tx\t3", "1\tx\t3"} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := d.Decode(&scratch, line); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 || &scratch[0] != base || len(scratch) != 4 {
			t.Errorf("line %q: %v allocations, scratch moved %v, %d values; want 0, false, 4", line, allocs, &scratch[0] != base, len(scratch))
		}
	}
	row, err := d.Decode(&scratch, "2\tx\t3")
	if err != nil || len(row) != 2 || &row[0] != &scratch[2] {
		t.Errorf("kept row %v, %v does not sit at scratch[2:4] of %v", row, err, scratch)
	}
}

// TestDecoderSharedByInstances: a cached plan's decoder serves every map
// instance of every session at once. Instances on several goroutines, each
// with its own scratch, decode the same lines through one Decoder and get
// exactly what one instance gets alone.
func TestDecoderSharedByInstances(t *testing.T) {
	d := NewDecoder("J1", decoderSchema, []int{0, 2}, decoderStages)
	lines := make([]string, 300)
	for i := range lines {
		tag := "J1"
		if i%7 == 0 {
			tag = "J2"
		}
		lines[i] = string(AppendTag(nil, tag)) + fmt.Sprintf("%d\tx%d\t%d", i%5, i, i)
	}
	var solo exec.Row
	want := make([]string, len(lines))
	for i, line := range lines {
		want[i] = decodeLine(d, &solo, line)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var scratch exec.Row
			for k := range lines {
				i := (k + 37*g) % len(lines)
				if got := decodeLine(d, &scratch, lines[i]); got != want[i] {
					t.Errorf("instance %d, line %q: %q, alone %q", g, lines[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
