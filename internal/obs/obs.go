package obs

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// Options configures an Observer.
type Options struct {
	// TraceWriter receives JSONL trace events; nil disables tracing (metrics
	// still collect).
	TraceWriter io.Writer
	// SampleRuntime enables per-slot heap/goroutine/GC gauges (the simulator
	// calls SampleRuntime once per slot when this is set). Sampling calls
	// runtime.ReadMemStats, which briefly stops the world, so it is opt-in.
	SampleRuntime bool
}

// Observer bundles a metrics registry, an optional tracer, and runtime
// sampling. A nil *Observer is the nop observer: every method is nil-safe
// and free apart from the receiver test, so instrumented code holds a plain
// *Observer and never branches on a separate enabled flag.
type Observer struct {
	reg           *Registry
	tracer        *Tracer
	sampleRuntime bool
	hub           eventHub
}

// eventHub fans trace events out to live subscribers (the telemetry server's
// /events SSE stream). Publishing is skipped entirely while no subscriber is
// attached — the common case costs one atomic load per Emit — and never
// blocks: a subscriber that falls behind loses events rather than stalling
// the simulation.
type eventHub struct {
	mu     sync.Mutex
	subs   map[int]chan Event
	nextID int
	active atomic.Int32
}

func (h *eventHub) subscribe(buf int) (<-chan Event, func()) {
	if buf <= 0 {
		buf = 256
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.subs == nil {
		h.subs = make(map[int]chan Event)
	}
	id := h.nextID
	h.nextID++
	ch := make(chan Event, buf)
	h.subs[id] = ch
	h.active.Add(1)
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			h.mu.Lock()
			delete(h.subs, id)
			h.mu.Unlock()
			h.active.Add(-1)
		})
	}
	return ch, cancel
}

func (h *eventHub) publish(ev Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, ch := range h.subs {
		select {
		case ch <- ev:
		default: // the subscriber fell behind: drop rather than block
		}
	}
}

// New builds an enabled observer.
func New(opts Options) *Observer {
	o := &Observer{reg: NewRegistry(), sampleRuntime: opts.SampleRuntime}
	if opts.TraceWriter != nil {
		o.tracer = NewTracer(opts.TraceWriter)
	}
	return o
}

// Enabled reports whether the observer collects anything.
func (o *Observer) Enabled() bool { return o != nil }

// TraceEnabled reports whether trace events are being consumed — by the
// JSONL tracer, a live /events subscriber, or both. Callers use it to skip
// building Fields maps when nothing listens.
func (o *Observer) TraceEnabled() bool {
	return o != nil && (o.tracer != nil || o.hub.active.Load() > 0)
}

// Subscribe attaches a live event subscriber (the telemetry server's SSE
// stream). Events emitted after the call are delivered on the returned
// channel; a subscriber that falls behind its buffer loses events rather than
// stalling producers. The cancel function detaches the subscriber and is safe
// to call more than once. On a nil observer both returns are nil.
func (o *Observer) Subscribe(buf int) (<-chan Event, func()) {
	if o == nil {
		return nil, func() {}
	}
	return o.hub.subscribe(buf)
}

// Registry exposes the underlying registry (nil when disabled).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Inc increments the named counter.
func (o *Observer) Inc(name string) {
	if o == nil {
		return
	}
	o.reg.Counter(name).Inc()
}

// Add adds delta to the named counter.
func (o *Observer) Add(name string, delta int64) {
	if o == nil {
		return
	}
	o.reg.Counter(name).Add(delta)
}

// Set sets the named gauge.
func (o *Observer) Set(name string, v float64) {
	if o == nil {
		return
	}
	o.reg.Gauge(name).Set(v)
}

// Observe records v in the named histogram (DefaultLatencyBuckets bounds).
func (o *Observer) Observe(name string, v float64) {
	if o == nil {
		return
	}
	o.reg.Histogram(name, nil).Observe(v)
}

// ObserveWith records v in the named histogram, creating it with the given
// bounds on first use.
func (o *Observer) ObserveWith(name string, bounds []float64, v float64) {
	if o == nil {
		return
	}
	o.reg.Histogram(name, bounds).Observe(v)
}

// IncL increments the counter with the given name and labels, e.g.
//
//	ob.IncL("bandit.pulls", obs.L("arm", "bs3"))
//
// Label order at the call site does not matter: the series identity is the
// canonical sorted encoding (see Registry.CounterL).
func (o *Observer) IncL(name string, labels ...Label) {
	if o == nil {
		return
	}
	o.reg.CounterL(name, labels...).Inc()
}

// AddL adds delta to the labeled counter.
func (o *Observer) AddL(name string, delta int64, labels ...Label) {
	if o == nil {
		return
	}
	o.reg.CounterL(name, labels...).Add(delta)
}

// SetL sets the labeled gauge.
func (o *Observer) SetL(name string, v float64, labels ...Label) {
	if o == nil {
		return
	}
	o.reg.GaugeL(name, labels...).Set(v)
}

// ObserveL records v in the labeled histogram (DefaultLatencyBuckets bounds).
func (o *Observer) ObserveL(name string, v float64, labels ...Label) {
	if o == nil {
		return
	}
	o.reg.HistogramL(name, nil, labels...).Observe(v)
}

// Emit appends a trace event to the JSONL tracer (when configured) and fans
// it out to live subscribers (when any). Callers on hot paths should guard
// with TraceEnabled to avoid building the Fields map.
func (o *Observer) Emit(ev Event) {
	if o == nil {
		return
	}
	if o.tracer != nil {
		o.tracer.Emit(ev)
	}
	if o.hub.active.Load() > 0 {
		o.hub.publish(ev)
	}
}

// Snapshot freezes the current metrics (zero value when disabled).
func (o *Observer) Snapshot() Snapshot {
	if o == nil {
		return Snapshot{}
	}
	return o.reg.Snapshot()
}

// SampleRuntime records heap/goroutine/GC gauges for the given slot when
// runtime sampling is enabled. It stays cheap when sampling is off.
func (o *Observer) SampleRuntime(slot int) {
	if o == nil || !o.sampleRuntime {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.reg.Gauge("runtime.heap_alloc_bytes").Set(float64(ms.HeapAlloc))
	o.reg.Gauge("runtime.heap_objects").Set(float64(ms.HeapObjects))
	o.reg.Gauge("runtime.gc_cycles").Set(float64(ms.NumGC))
	o.reg.Gauge("runtime.goroutines").Set(float64(runtime.NumGoroutine()))
	if o.tracer != nil {
		o.tracer.Emit(Event{Slot: slot, Name: "runtime.sample", Fields: Fields{
			"heap_alloc_bytes": ms.HeapAlloc,
			"heap_objects":     ms.HeapObjects,
			"gc_cycles":        ms.NumGC,
			"goroutines":       runtime.NumGoroutine(),
		}})
	}
}

// Flush drains the tracer's buffer (no-op when disabled or untraced).
func (o *Observer) Flush() error {
	if o == nil || o.tracer == nil {
		return nil
	}
	return o.tracer.Flush()
}
