package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})
	// Exact bounds land in the bucket they bound (v <= bound), values above
	// the last bound land in the overflow bucket.
	cases := []struct {
		v    float64
		want int // bucket index
	}{
		{0.5, 0}, {1, 0}, {1.0001, 1}, {2, 1}, {3, 2}, {5, 2}, {5.0001, 3}, {100, 3},
	}
	for _, c := range cases {
		before := make([]int64, len(h.counts))
		for i := range h.counts {
			before[i] = h.counts[i].Load()
		}
		h.Observe(c.v)
		for i := range h.counts {
			got := h.counts[i].Load() - before[i]
			want := int64(0)
			if i == c.want {
				want = 1
			}
			if got != want {
				t.Errorf("Observe(%v): bucket %d delta = %d, want %d", c.v, i, got, want)
			}
		}
	}
	if h.Count() != int64(len(cases)) {
		t.Errorf("Count = %d, want %d", h.Count(), len(cases))
	}
	wantSum := 0.0
	for _, c := range cases {
		wantSum += c.v
	}
	if h.Sum() != wantSum {
		t.Errorf("Sum = %v, want %v", h.Sum(), wantSum)
	}
}

func TestHistogramUnsortedBoundsAreSorted(t *testing.T) {
	h := newHistogram([]float64{5, 1, 2})
	h.Observe(1.5)
	if got := h.counts[1].Load(); got != 1 {
		t.Errorf("Observe(1.5) with unsorted bounds: bucket 1 = %d, want 1", got)
	}
}

func TestConcurrentCounterIncrements(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Get-or-create on every iteration: exercises the sync.Map
				// fast path under contention, not just the atomic add.
				r.Counter("shared").Inc()
				r.Histogram("hist", nil).Observe(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	h := r.Histogram("hist", nil)
	if h.Count() != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", h.Count(), goroutines*perG)
	}
	if h.Sum() != float64(goroutines*perG) {
		t.Errorf("histogram sum = %v, want %v", h.Sum(), goroutines*perG)
	}
}

func TestTraceJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	want := []Event{
		{Slot: 0, Name: "slot", Policy: "OL_GD", Fields: Fields{"decide_ms": 1.5, "explore": true}},
		{Slot: 1, Name: "olgd.decide", Policy: "OL_GD", Fields: Fields{"solver": "flow", "iterations": float64(42)}},
		{Slot: 2, Name: "gan.epoch"},
	}
	for _, ev := range want {
		tr.Emit(ev)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	// Every line must be standalone-parseable JSON.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("got %d JSONL lines, want %d", len(lines), len(want))
	}
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i, err)
		}
	}
	got, err := DecodeEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Slot != want[i].Slot || got[i].Name != want[i].Name || got[i].Policy != want[i].Policy {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
		for k, v := range want[i].Fields {
			if fmt.Sprint(got[i].Fields[k]) != fmt.Sprint(v) {
				t.Errorf("event %d field %q = %v, want %v", i, k, got[i].Fields[k], v)
			}
		}
	}
}

func TestNopObserverIsSafe(t *testing.T) {
	var o *Observer // the disabled observer
	if o.Enabled() || o.TraceEnabled() {
		t.Error("nop observer reports enabled")
	}
	// Every method must be a no-op on the nil receiver.
	o.Inc("c")
	o.Add("c", 3)
	o.Set("g", 1)
	o.Observe("h", 1)
	o.ObserveWith("h2", []float64{1}, 1)
	o.Emit(Event{Name: "x"})
	o.SampleRuntime(0)
	if err := o.Flush(); err != nil {
		t.Errorf("Flush on nop observer: %v", err)
	}
	if s := o.Snapshot(); numSeries(s) != 0 {
		t.Errorf("nop snapshot has %d series", numSeries(s))
	}
	if o.Registry() != nil {
		t.Error("nop Registry() != nil")
	}
}

func TestObserverMetricsAndSnapshot(t *testing.T) {
	o := New(Options{})
	o.Inc("sim.slots")
	o.Inc("sim.slots")
	o.Add("bandit.observations", 5)
	o.Set("bandit.epsilon", 0.25)
	o.Observe("sim.decide_ms", 3)
	snap := o.Snapshot()
	if snap.Counters["sim.slots"] != 2 {
		t.Errorf("sim.slots = %d", snap.Counters["sim.slots"])
	}
	if snap.Counters["bandit.observations"] != 5 {
		t.Errorf("bandit.observations = %d", snap.Counters["bandit.observations"])
	}
	if snap.Gauges["bandit.epsilon"] != 0.25 {
		t.Errorf("bandit.epsilon = %v", snap.Gauges["bandit.epsilon"])
	}
	h := snap.Histograms["sim.decide_ms"]
	if h.Count != 1 || h.Sum != 3 || h.Mean != 3 {
		t.Errorf("sim.decide_ms snapshot = %+v", h)
	}
	if numSeries(snap) != 4 {
		t.Errorf("series = %d, want 4", numSeries(snap))
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.Counters["sim.slots"] != 2 {
		t.Errorf("round-tripped sim.slots = %d", back.Counters["sim.slots"])
	}
	if !strings.Contains(snap.String(), "sim.slots = 2") {
		t.Errorf("String() missing counter line:\n%s", snap.String())
	}

	o.Registry().Reset()
	if n := numSeries(o.Snapshot()); n != 0 {
		t.Errorf("after Reset: %d series", n)
	}
}

func TestSampleRuntimeGauges(t *testing.T) {
	var buf bytes.Buffer
	o := New(Options{TraceWriter: &buf, SampleRuntime: true})
	o.SampleRuntime(7)
	snap := o.Snapshot()
	if snap.Gauges["runtime.heap_alloc_bytes"] <= 0 {
		t.Errorf("heap_alloc_bytes = %v", snap.Gauges["runtime.heap_alloc_bytes"])
	}
	if snap.Gauges["runtime.goroutines"] < 1 {
		t.Errorf("goroutines = %v", snap.Gauges["runtime.goroutines"])
	}
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := DecodeEvents(bytes.NewReader(buf.Bytes()))
	if err != nil || len(evs) != 1 || evs[0].Name != "runtime.sample" || evs[0].Slot != 7 {
		t.Fatalf("runtime.sample event: %v %v", evs, err)
	}

	// Sampling disabled: no gauges appear.
	o2 := New(Options{})
	o2.SampleRuntime(0)
	if n := numSeries(o2.Snapshot()); n != 0 {
		t.Errorf("SampleRuntime with sampling off recorded %d series", n)
	}
}

func TestPprofHelpers(t *testing.T) {
	srv, addr, err := StartPprofServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status = %d", resp.StatusCode)
	}

	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	stop, err := StartCPUProfile(cpu)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Errorf("cpu profile missing or empty: %v", err)
	}
	heap := filepath.Join(dir, "heap.pprof")
	if err := WriteHeapProfile(heap); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(heap); err != nil || fi.Size() == 0 {
		t.Errorf("heap profile missing or empty: %v", err)
	}
}

// numSeries counts the distinct named series in a snapshot.
func numSeries(s Snapshot) int {
	return len(s.Counters) + len(s.Gauges) + len(s.Histograms)
}
