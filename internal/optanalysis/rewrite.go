package optanalysis

import (
	"strings"

	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/translator"
)

// Apply installs every rewrite of the report into the matching runtime
// jobs (matched by Job.Name) and returns how many rewrites it applied.
// All three kinds wrap the input's mapper: lines the mapper's guard would
// drop are reported as mapreduce.ErrFiltered before it runs, pairs the
// reducer would skip are dropped at the map side, and dead value columns
// are blanked to NULL before the shuffle. Applied rewrites are marked
// Applied in place, so a report formatted after Apply shows what actually
// happened.
func (r *Report) Apply(jobs []*mapreduce.Job) int {
	byName := map[string]*mapreduce.Job{}
	for _, j := range jobs {
		byName[j.Name] = j
	}
	applied := 0
	for _, jr := range r.Jobs {
		job := byName[jr.Name]
		if jr.Name == "" || job == nil {
			continue
		}
		// The mapper wrap combines every rewrite of an input, so collect
		// them before touching the job.
		type mapperRewrite struct {
			schema        *exec.Schema
			filter, guard *pred
			dead          map[int]bool
			marks         []*Rewrite
		}
		wraps := map[int]*mapperRewrite{}
		for _, rw := range jr.Rewrites {
			if rw.Input < 0 || rw.Input >= len(job.Inputs) || rw.schema == nil {
				continue
			}
			w := wraps[rw.Input]
			if w == nil {
				w = &mapperRewrite{schema: rw.schema, dead: map[int]bool{}}
				wraps[rw.Input] = w
			}
			switch rw.Kind {
			case KindEarlyFilter:
				w.filter = rw.guard
			case KindPushdown:
				w.guard = rw.guard
			case KindTrim:
				for _, c := range rw.dead {
					w.dead[c] = true
				}
			}
			w.marks = append(w.marks, rw)
		}
		for idx, w := range wraps {
			orig := job.Inputs[idx].Mapper
			if orig == nil || (w.filter == nil && w.guard == nil && len(w.dead) == 0) {
				continue
			}
			job.Inputs[idx].Mapper = wrapMapper(orig, w.schema, w.filter, w.guard, w.dead)
			for _, rw := range w.marks {
				rw.Applied = true
				applied++
			}
		}
	}
	return applied
}

// wrapMapper runs the original mapper behind the input's rewrites: a line
// the mapper's own guard (filter) drops is reported as
// mapreduce.ErrFiltered without running it, and on its emit, pairs the
// reducer's guard (keep) would skip are dropped and dead columns blanked.
// The original map function is untouched — its decode errors, its own
// filters, and its key derivation all run exactly as written.
func wrapMapper(orig mapreduce.Mapper, schema *exec.Schema, filter, keep *pred, dead map[int]bool) mapreduce.Mapper {
	return &rewrittenMapper{orig: orig, schema: schema, filter: filter, keep: keep, dead: dead}
}

// rewrittenMapper is wrapMapper's mapper class; each of its instances runs
// an instance of the original.
type rewrittenMapper struct {
	orig         mapreduce.Mapper
	schema       *exec.Schema
	filter, keep *pred
	dead         map[int]bool
}

// NewMapTask implements mapreduce.Mapper.
func (w *rewrittenMapper) NewMapTask() mapreduce.MapTask {
	orig, schema, filter, keep, dead := w.orig.NewMapTask(), w.schema, w.filter, w.keep, w.dead
	width := schema.Len()
	return mapreduce.MapperFunc(func(line string, emit mapreduce.Emit) error {
		if filter != nil {
			// A line that fails to decode runs the mapper, which
			// surfaces the error.
			if r, err := exec.DecodeRow(line, schema); err == nil && !filter.eval(r) {
				return mapreduce.ErrFiltered
			}
		}
		if keep == nil && len(dead) == 0 {
			return orig.Map(line, emit)
		}
		return orig.Map(line, func(k, v string) {
			if keep != nil {
				if r, err := exec.DecodeRow(v, schema); err == nil && !keep.eval(r) {
					return
				}
			}
			if len(dead) > 0 {
				v = trimValue(v, width, dead)
			}
			emit(k, v)
		})
	})
}

// trimValue blanks the dead columns of an encoded row to NULL. A value
// whose field count does not match the proven schema passes through
// untouched: the analysis only covered rows of that exact shape.
func trimValue(v string, width int, dead map[int]bool) string {
	fields := strings.Split(v, "\t")
	if len(fields) != width {
		return v
	}
	for i := range fields {
		if dead[i] {
			fields[i] = `\N`
		}
	}
	return strings.Join(fields, "\t")
}

// ApplyTranslation forwards to translator.ApplyScanFacts, where the
// rewrite of generated code lives. Its one caller is bench/replica.go:177,
// frozen outside benchmark PRs; it goes with Plan.Release in the next one.
func ApplyTranslation(tr *translator.Translation) (applied, refused []translator.ScanFact) {
	return translator.ApplyScanFacts(tr)
}
