package obs

// ActiveSpan is a span that has begun but not yet ended: the duration of
// the work between Begin and End on the simulated clock. It exists for
// producers that learn a span's extent (and its trailing annotations)
// only at the end of a computation with early exits — the chain driver,
// for example, knows its job count up front but its byte totals only
// after the last job.
//
// The contract is that every Begin is matched by exactly one End on every
// return path of the enclosing function; `defer span.End(...)` is the
// idiomatic way to satisfy it (mapreduce's TestFailedChainClosesItsSpan
// pins it for the chain driver). A second End is a no-op, so an early
// explicit End composes safely with a deferred one.
type ActiveSpan struct {
	t     Tracer
	cat   string
	name  string
	track string
	start float64
	args  []Field
	ended bool
}

// inertSpan is shared by every Begin on a disabled tracer, keeping the
// disabled path allocation-free (the same guarantee Tracer.Enabled gives
// direct Emit call sites).
var inertSpan = &ActiveSpan{}

// Begin opens a span at start on the tracer. Leading args are recorded
// now; End appends its own and emits the completed event. On a disabled
// tracer Begin returns an inert span whose End does nothing.
func Begin(t Tracer, cat, name, track string, start float64, args ...Field) *ActiveSpan {
	if t == nil || !t.Enabled() {
		return inertSpan
	}
	return &ActiveSpan{t: t, cat: cat, name: name, track: track, start: start, args: args}
}

// End closes the span at end, emitting one Span event whose duration is
// end-start and whose args are the Begin args followed by End's. Calling
// End again (or Ending an inert span) is a no-op.
func (s *ActiveSpan) End(end float64, args ...Field) {
	if s.t == nil || s.ended {
		return
	}
	s.ended = true
	all := s.args
	if len(args) > 0 {
		all = make([]Field, 0, len(s.args)+len(args))
		all = append(all, s.args...)
		all = append(all, args...)
	}
	s.t.Emit(SpanEvent(s.cat, s.name, s.track, s.start, end-s.start, all...))
}
