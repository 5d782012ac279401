package cmf

import "ysmart/internal/exec"

// Stage is one step of a lowered transparent chain: a selection when Pred
// is set, else a projection whose Exprs compute the next row.
type Stage struct {
	Pred  exec.Predicate
	Exprs []exec.Evaluator
}

// Decoder is an input's compiled map-side line plan, the "decode" of the
// common mapper (§VI.A): keep the lines that carry the input's tag,
// decode the demanded columns of their payload, then run the map-side
// stages. It is fixed once built, so one Decoder serves every map
// instance of every run of a plan; each instance passes its own scratch.
type Decoder struct {
	tag    string
	schema *exec.Schema
	cols   []int
	stages []Stage
	width  int // decoded row width
	need   int // scratch width: the decoded row plus every projection
}

// NewDecoder compiles the line plan of an input whose lines carry tag (""
// takes every line whole, as CutTag does) over payloads typed by schema:
// cols lists the columns to decode, ascending (nil: all of them), and
// stages run over the decoded row in order.
func NewDecoder(tag string, schema *exec.Schema, cols []int, stages []Stage) *Decoder {
	d := &Decoder{tag: tag, schema: schema, cols: cols, stages: stages, width: len(cols)}
	if cols == nil {
		d.width = schema.Len()
	}
	d.need = d.width
	for _, s := range stages {
		d.need += len(s.Exprs)
	}
	return d
}

// Decode runs the plan over one line; a nil row with no error drops the
// line. It works in the calling instance's scratch row: the decoded row
// at its start and each projection's output right after its input. The
// scratch grows once, by the first line, and the instance keeps it whether
// or not that line passes, so an instance whose first lines are all
// dropped allocates once, not per line. The row is valid until the
// instance's next call.
func (d *Decoder) Decode(scratch *exec.Row, line string) (exec.Row, error) {
	payload, ok := CutTag(line, d.tag)
	if !ok {
		return nil, nil // another output's rows in a shared file
	}
	if cap(*scratch) < d.need {
		*scratch = make(exec.Row, d.need)
	}
	dst := (*scratch)[:d.need]
	row, err := exec.DecodeColsInto(dst[:d.width], payload, d.schema, d.cols)
	if err != nil {
		return nil, err
	}
	off := d.width
	for _, s := range d.stages {
		if s.Pred != nil {
			ok, err := s.Pred(row)
			if err != nil || !ok {
				return nil, err
			}
			continue
		}
		out := dst[off : off+len(s.Exprs)]
		off += len(s.Exprs)
		for i, fn := range s.Exprs {
			v, err := fn(row)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		row = out
	}
	return row, nil
}
