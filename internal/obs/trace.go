package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// Fields carries the variable payload of a trace event. Values must be
// JSON-serialisable (numbers, strings, bools, small slices).
type Fields map[string]any

// Event is one JSONL trace record. The schema is documented in the README's
// "Observability" section; decoding a line back into an Event is lossless up
// to JSON number typing (use DecodeEvents for round-trips).
type Event struct {
	// Slot is the simulation slot index the event belongs to; producers
	// outside the slot loop (e.g. GAN training) use their own monotonic index
	// (epoch) and say so in Name.
	Slot int `json:"slot"`
	// Name identifies the event type (e.g. "slot", "olgd.decide",
	// "gan.epoch").
	Name string `json:"event"`
	// Policy is the emitting policy's display name, when applicable.
	Policy string `json:"policy,omitempty"`
	// Trace groups the spans of one request-scoped trace — all events that
	// belong to a single served request carry the same Trace ID (e.g. mecd's
	// per-request "r000042"). Empty for events outside any request.
	Trace string `json:"trace,omitempty"`
	// Span names this span within its trace; Parent names the span it nests
	// under. The root span of a trace has an empty Parent. Both are empty for
	// plain (non-span) events, so the pre-span schema is a strict subset.
	Span   string `json:"span,omitempty"`
	Parent string `json:"parent,omitempty"`
	// Fields holds the event-specific payload.
	Fields Fields `json:"fields,omitempty"`
}

// Tracer streams events as JSON Lines to an io.Writer. Emit is
// concurrent-safe; output is buffered, so call Flush (or Observer.Close)
// before reading the destination.
type Tracer struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	err error // first write error, reported by Flush
}

// NewTracer wraps w in a buffered JSONL encoder.
func NewTracer(w io.Writer) *Tracer {
	bw := bufio.NewWriter(w)
	return &Tracer{bw: bw, enc: json.NewEncoder(bw)}
}

// Emit appends one event. Write errors are latched and surfaced by Flush so
// the hot path stays unconditional.
func (t *Tracer) Emit(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if err := t.enc.Encode(ev); err != nil {
		t.err = err
	}
}

// Flush drains the buffer and returns the first error seen by Emit or the
// flush itself.
func (t *Tracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	return t.bw.Flush()
}

// DecodeEvents parses a JSONL trace stream back into events (the inverse of
// Tracer.Emit), stopping at the first malformed line.
func DecodeEvents(r io.Reader) ([]Event, error) {
	var out []Event
	dec := json.NewDecoder(r)
	for {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, ev)
	}
}
