// Package cmf implements YSmart's Common MapReduce Framework (paper §VI):
// the machinery that lets one physical MapReduce job execute the
// functionality of several correlated jobs.
//
// A common mapper reads each record once, evaluates the selection of every
// merged job ("stream"), and emits at most one common key/value pair whose
// value carries (a) the union of the columns any merged job needs and (b)
// an *inverted* tag listing the streams that must NOT see the pair —
// inverted because map outputs overlap heavily between merged jobs, so the
// exclusion list is usually empty (§VI.A). Every pair also carries its
// source-input index, the standard reduce-side-join table tag (§II.B).
//
// A common reducer dispatches each value to the merged reducers that may
// see it (Algorithm 1) and then runs post-job computations — the operators
// merged by job-flow correlation — as a small per-key dataflow graph. The
// translator (internal/translator) builds these graphs; this package only
// executes them.
package cmf

import (
	"fmt"
	"strconv"
	"strings"

	"ysmart/internal/exec"
)

// TaggedValue is one common map-output value: the union row, the index of
// the input that produced it, and the set of that input's streams excluded
// from seeing it.
type TaggedValue struct {
	Input    int   // source input index within the job
	Excluded []int // stream IDs that must not see the row; usually empty
	Row      exec.Row
}

// EncodeTagged renders a tagged value as "<input>[!excl,...]|<row>". The
// exclusion list is omitted when empty, so the common case costs two bytes
// of overhead ("0|").
func EncodeTagged(input int, excluded []int, row exec.Row) string {
	var buf [256]byte // wider than any workload value: one allocation, the string
	return string(exec.AppendRow(appendTagHeader(buf[:0], input, excluded), row))
}

// appendTagHeader appends everything of a tagged value but the row.
func appendTagHeader(dst []byte, input int, excluded []int) []byte {
	dst = strconv.AppendInt(dst, int64(input), 10)
	for i, id := range excluded {
		sep := byte(',')
		if i == 0 {
			sep = '!'
		}
		dst = strconv.AppendInt(append(dst, sep), int64(id), 10)
	}
	return append(dst, '|')
}

// appendTagged parses a tagged value produced by EncodeTagged into
// caller-owned storage, decoding its row by schemas[input], the schema of
// the rows that input ships: the exclusions are appended to excl and the
// row is built in vals' spare capacity (room for a value per field of s
// suffices), and the returned value's Excluded and Row are those
// extensions (Row capped at its own width). A reducer instance passes its
// exclusion scratch, and it and the combiner the slab they decode a whole
// key group into.
func appendTagged(s string, schemas []*exec.Schema, excl []int, vals exec.Row) (TaggedValue, error) {
	sep := strings.IndexByte(s, '|')
	if sep < 0 {
		return TaggedValue{}, fmt.Errorf("tagged value %q has no separator", s)
	}
	head := s[:sep]
	var exclPart string
	if bang := strings.IndexByte(head, '!'); bang >= 0 {
		head, exclPart = head[:bang], head[bang+1:]
	}
	input, err := strconv.Atoi(head)
	if err != nil {
		return TaggedValue{}, fmt.Errorf("tagged value %q: bad input index %q", s, head)
	}
	if input < 0 || input >= len(schemas) {
		return TaggedValue{}, fmt.Errorf("value references input %d of %d", input, len(schemas))
	}
	excluded := excl[len(excl):]
	for more := exclPart != ""; more; {
		part := exclPart
		comma := strings.IndexByte(exclPart, ',')
		if more = comma >= 0; more {
			part, exclPart = exclPart[:comma], exclPart[comma+1:]
		}
		id, err := strconv.Atoi(part)
		if err != nil {
			return TaggedValue{}, fmt.Errorf("tagged value %q: bad stream id %q", s, part)
		}
		excluded = append(excluded, id)
	}
	row, err := exec.DecodeColsInto(vals[len(vals):cap(vals)], s[sep+1:], schemas[input], nil)
	if err != nil {
		return TaggedValue{}, fmt.Errorf("tagged value %q: %w", s, err)
	}
	return TaggedValue{Input: input, Excluded: excluded, Row: row[:len(row):len(row)]}, nil
}

// Sees reports whether stream id may see the value. The caller must already
// have established that the stream belongs to the value's source input.
func (t TaggedValue) Sees(id int) bool {
	for _, x := range t.Excluded {
		if x == id {
			return false
		}
	}
	return true
}

// outputTagSep separates an output-source tag from the row payload in the
// output of a common job that writes results of several merged jobs
// ("an additional tag is used for each output key/value pair to distinguish
// its source", §VI.B).
const outputTagSep = "\x01"

// AppendTag appends the prefix that marks a line as coming from the output
// tagged tag; an empty tag has no prefix, so single-output jobs write bare
// rows. The row payload follows it.
func AppendTag(dst []byte, tag string) []byte {
	if tag == "" {
		return dst
	}
	return append(append(dst, tag...), outputTagSep...)
}

// SplitTag removes the source tag of a line written after AppendTag, returning
// the tag ("" if none) and the payload.
func SplitTag(line string) (tag, payload string) {
	if i := strings.Index(line, outputTagSep); i >= 0 {
		return line[:i], line[i+len(outputTagSep):]
	}
	return "", line
}
