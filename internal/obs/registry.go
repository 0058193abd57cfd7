// Package obs is the runtime observability layer: a dependency-free metrics
// registry (counters, gauges, fixed-bucket histograms with a lock-free
// sync/atomic hot path), a span-based JSONL tracer for per-slot events, and
// runtime/profiling hooks (heap/goroutine/GC gauges, pprof capture).
//
// The central type is Observer, which bundles a Registry and an optional
// Tracer and is threaded through the simulator, the policies, and the
// solvers. Every Observer method is safe on a nil receiver and returns
// immediately, so a nil *Observer IS the nop observer: instrumented code
// pays a single pointer test per hook when observability is disabled (the
// bench suite verifies this costs well under 2% of a slot).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. Increments are
// lock-free (sync/atomic).
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (negative deltas are allowed but unusual).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric holding the last value set. Set/Value are
// lock-free (the float is stored as its IEEE-754 bits).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last value set (0 before any Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram. A value v lands in the first bucket
// whose upper bound satisfies v <= bound; values above every bound land in
// the implicit overflow bucket. Observations are lock-free: bucket counts
// are atomic adds and the running sum is a CAS loop on float bits.
type Histogram struct {
	bounds []float64      // sorted upper bounds (len B)
	counts []atomic.Int64 // len B+1; last is the overflow bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// DefaultLatencyBuckets are the histogram bounds used by Observer.Observe
// when no explicit bounds were registered. They span the delay scales the
// simulator actually produces — microsecond decide fast paths, sub-millisecond
// flow solves, millisecond slot delays, multi-second solver stalls — so the
// sub-millisecond mass is resolved instead of piling into one bottom bucket.
var DefaultLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000,
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v) // first i with bounds[i] >= v
	h.counts[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Registry is a concurrent-safe collection of named metrics. Reads of
// existing series go through sync.Map's lock-free fast path; only first-time
// registration takes the creation lock.
type Registry struct {
	mu        sync.Mutex // serialises creation and Reset
	counters  sync.Map   // string -> *Counter
	gauges    sync.Map   // string -> *Gauge
	histogram sync.Map   // string -> *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the counter with the given name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if v, ok := r.counters.Load(name); ok {
		return v.(*Counter)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.counters.Load(name); ok {
		return v.(*Counter)
	}
	c := &Counter{}
	r.counters.Store(name, c)
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if v, ok := r.gauges.Load(name); ok {
		return v.(*Gauge)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.gauges.Load(name); ok {
		return v.(*Gauge)
	}
	g := &Gauge{}
	r.gauges.Store(name, g)
	return g
}

// Histogram returns the histogram with the given name, creating it with the
// given bucket bounds on first use (later calls ignore bounds; pass nil to
// use DefaultLatencyBuckets).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if v, ok := r.histogram.Load(name); ok {
		return v.(*Histogram)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.histogram.Load(name); ok {
		return v.(*Histogram)
	}
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	h := newHistogram(bounds)
	r.histogram.Store(name, h)
	return h
}

// Reset removes every registered series.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	clearMap := func(m *sync.Map) {
		m.Range(func(k, _ any) bool {
			m.Delete(k)
			return true
		})
	}
	clearMap(&r.counters)
	clearMap(&r.gauges)
	clearMap(&r.histogram)
}

// HistogramSnapshot is the frozen state of one histogram.
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Mean   float64   `json:"mean"`
	Bounds []float64 `json:"bounds"`
	// Counts[i] pairs with Bounds[i]; the final extra entry is the overflow
	// bucket (> Bounds[len-1]).
	Counts []int64 `json:"counts"`
}

// Snapshot is a frozen, JSON-serialisable view of a Registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Snapshot freezes the current state of every series.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	r.counters.Range(func(k, v any) bool {
		s.Counters[k.(string)] = v.(*Counter).Value()
		return true
	})
	r.gauges.Range(func(k, v any) bool {
		s.Gauges[k.(string)] = v.(*Gauge).Value()
		return true
	})
	r.histogram.Range(func(k, v any) bool {
		h := v.(*Histogram)
		hs := HistogramSnapshot{
			Count:  h.Count(),
			Sum:    h.Sum(),
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
		}
		if hs.Count > 0 {
			hs.Mean = hs.Sum / float64(hs.Count)
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[k.(string)] = hs
		return true
	})
	return s
}

// String renders a compact sorted one-line-per-series dump (debug aid).
func (s Snapshot) String() string {
	var names []string
	for k := range s.Counters {
		names = append(names, "c:"+k)
	}
	for k := range s.Gauges {
		names = append(names, "g:"+k)
	}
	for k := range s.Histograms {
		names = append(names, "h:"+k)
	}
	sort.Strings(names)
	out := ""
	for _, n := range names {
		kind, key := n[:1], n[2:]
		switch kind {
		case "c":
			out += fmt.Sprintf("%s = %d\n", key, s.Counters[key])
		case "g":
			out += fmt.Sprintf("%s = %g\n", key, s.Gauges[key])
		case "h":
			h := s.Histograms[key]
			out += fmt.Sprintf("%s = {n=%d mean=%.3f}\n", key, h.Count, h.Mean)
		}
	}
	return out
}
