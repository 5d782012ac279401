// Package obs is the zero-dependency tracing and metrics layer of the
// simulated MapReduce stack. Producers (the engine, the DFS, the common
// reducer, the translator's merging rules) emit typed events stamped with
// the *simulated* clock into a Collector; a Registry accumulates named
// counters, gauges and histograms; a Logger streams JSON events. Exporters
// render collected events as Chrome trace-event JSON (chrome.go, loadable
// in Perfetto), an ASCII Gantt timeline (timeline.go), and a
// Prometheus-style text dump (prom.go).
//
// A nil sink is off. A nil *Collector, *Registry or *Logger is a valid
// receiver whose methods record nothing and read back zero, so producers
// hold the sinks they were given and never ask whether one is there —
// the rule the reuse store and the engine's context follow too. Producers
// guard event construction behind Collector.Enabled, so an untraced run
// pays one nil check per site and stays byte-for-byte identical to a
// traced one.
//
// Everything in this package is deterministic: events carry no wall-clock
// reads, collectors preserve emission order, and every exporter sorts any
// map it touches, so identical runs produce identical bytes.
package obs

import "sync"

// EventKind distinguishes the two event shapes.
type EventKind int

// Event kinds.
const (
	// Span is a duration event: [Time, Time+Dur] on its track.
	Span EventKind = iota
	// Instant is a point event at Time.
	Instant
)

// Field is one ordered key/value annotation of an event. Values should be
// strings, integers, floats or bools (the types the exporters render).
type Field struct {
	Key   string
	Value any
}

// F builds a Field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Event is one typed trace event on the simulated clock.
type Event struct {
	// Name labels the event (a job name, a phase, a rule).
	Name string
	// Cat is the event category: "chain", "job", "phase", "wave", "task",
	// "gap", "dfs", "cmf", "translator". Exporters group and style by it.
	Cat  string
	Kind EventKind
	// Track names the horizontal lane the event belongs to (a Chrome trace
	// thread): "driver", "translator", "dfs", or "job:<name>".
	Track string
	// Time is the event start in simulated seconds since the run began.
	Time float64
	// Dur is the span length in simulated seconds (zero for instants).
	Dur float64
	// Args are ordered annotations (counters, paths, provenance).
	Args []Field
}

// End returns the span's end time (Time for instants).
func (e Event) End() float64 { return e.Time + e.Dur }

// Arg returns the value of the named annotation, or nil.
func (e Event) Arg(key string) any {
	for _, f := range e.Args {
		if f.Key == key {
			return f.Value
		}
	}
	return nil
}

// SpanEvent builds a duration event.
func SpanEvent(cat, name, track string, start, dur float64, args ...Field) Event {
	return Event{Name: name, Cat: cat, Kind: Span, Track: track, Time: start, Dur: dur, Args: args}
}

// InstantEvent builds a point event.
func InstantEvent(cat, name, track string, at float64, args ...Field) Event {
	return Event{Name: name, Cat: cat, Kind: Instant, Track: track, Time: at, Args: args}
}

// Collector is the tracer: it records every event in emission order and is
// safe for concurrent use. A nil *Collector is tracing off: Enabled reports
// false, Emit and Reset do nothing, and Events and Len read back empty.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Emit records e.
func (c *Collector) Emit(e Event) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
}

// Enabled reports whether events are recorded; producers skip building
// events entirely when it returns false.
func (c *Collector) Enabled() bool { return c != nil }

// Events returns a copy of the recorded events in emission order.
func (c *Collector) Events() []Event {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// Len reports the number of recorded events.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// Reset discards all recorded events.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = nil
}
