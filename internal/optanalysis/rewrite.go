package optanalysis

import (
	"strings"

	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/translator"
)

// Apply installs every rewrite of the report into the matching runtime
// jobs (matched by Job.Name) and returns how many rewrites it applied.
// Early filters become Input.Prefilter hooks; reducer-pushdown and
// projection-trim wrap the input's mapper so pairs the reducer would
// skip are dropped at the map side and dead value columns are blanked to
// NULL before the shuffle. Applied rewrites are marked Applied in place,
// so a report formatted after Apply shows what actually happened.
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
		// The mapper wrap combines pushdown and trim per input, so
		// collect both before touching the job.
		type valueRewrite struct {
			schema *exec.Schema
			guard  *pred
			dead   map[int]bool
			marks  []*Rewrite
		}
		wraps := map[int]*valueRewrite{}
		for _, rw := range jr.Rewrites {
			if rw.Input < 0 || rw.Input >= len(job.Inputs) {
				continue
			}
			switch rw.Kind {
			case KindEarlyFilter:
				if rw.prefilter != nil {
					job.Inputs[rw.Input].Prefilter = rw.prefilter
					rw.Applied = true
					applied++
				}
			case KindPushdown, KindTrim:
				if rw.schema == nil {
					continue
				}
				w := wraps[rw.Input]
				if w == nil {
					w = &valueRewrite{schema: rw.schema, dead: map[int]bool{}}
					wraps[rw.Input] = w
				}
				if rw.Kind == KindPushdown {
					w.guard = rw.guard
				} else {
					for _, c := range rw.dead {
						w.dead[c] = true
					}
				}
				w.marks = append(w.marks, rw)
			}
		}
		for idx, w := range wraps {
			orig := job.Inputs[idx].Mapper
			if orig == nil || (w.guard == nil && len(w.dead) == 0) {
				continue
			}
			job.Inputs[idx].Mapper = wrapMapper(orig, w.schema, w.guard, w.dead)
			for _, rw := range w.marks {
				rw.Applied = true
				applied++
			}
		}
	}
	return applied
}

// wrapMapper interposes on the original mapper's emit: drop pairs the
// reducer's guard would skip, then blank dead columns. The original map
// function is untouched — its decode errors, its own filters, and its
// key derivation all run exactly as written.
func wrapMapper(orig mapreduce.Mapper, schema *exec.Schema, keep *pred, dead map[int]bool) mapreduce.Mapper {
	width := schema.Len()
	return mapreduce.MapperFunc(func(line string, emit mapreduce.Emit) error {
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
