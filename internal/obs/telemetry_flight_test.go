package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSeriesKeyCanonical pins the labeled-series identity rules: call-site
// label order must not matter, values are escaped per the Prometheus rules,
// and splitSeriesKey inverts the encoding at name/labels granularity.
func TestSeriesKeyCanonical(t *testing.T) {
	a := seriesKey("solve.fallbacks", L("tier", "flow", "policy", "OL_GD"))
	b := seriesKey("solve.fallbacks", L("policy", "OL_GD", "tier", "flow"))
	if a != b {
		t.Errorf("label order changed identity: %q vs %q", a, b)
	}
	if want := `solve.fallbacks{policy="OL_GD",tier="flow"}`; a != want {
		t.Errorf("seriesKey = %q, want %q", a, want)
	}
	if got := seriesKey("plain", nil); got != "plain" {
		t.Errorf("unlabeled seriesKey = %q, want bare name", got)
	}
	esc := seriesKey("m", L("v", "a\\b\"c\nd"))
	if want := `m{v="a\\b\"c\nd"}`; esc != want {
		t.Errorf("escaped key = %q, want %q", esc, want)
	}
	name, labels := splitSeriesKey(a)
	if name != "solve.fallbacks" || labels != `policy="OL_GD",tier="flow"` {
		t.Errorf("splitSeriesKey = %q, %q", name, labels)
	}
	if name, labels := splitSeriesKey("bare"); name != "bare" || labels != "" {
		t.Errorf("splitSeriesKey(bare) = %q, %q", name, labels)
	}
	// A trailing key without a value pairs with "" instead of panicking.
	if got := L("k1", "v1", "orphan"); len(got) != 2 || got[1].Value != "" {
		t.Errorf("L with odd kv = %v", got)
	}
}

// TestLabeledSeriesAreIndependent checks that the same base name with
// different label sets counts separately, and that the same label set (in any
// order) resolves to the same underlying counter.
func TestLabeledSeriesAreIndependent(t *testing.T) {
	r := NewRegistry()
	r.CounterL("bandit.pulls", Label{"arm", "bs0"}).Inc()
	r.CounterL("bandit.pulls", Label{"arm", "bs1"}).Add(2)
	r.CounterL("solve.fallbacks", Label{"policy", "OL_GD"}, Label{"tier", "flow"}).Inc()
	r.CounterL("solve.fallbacks", Label{"tier", "flow"}, Label{"policy", "OL_GD"}).Inc()
	snap := r.Snapshot()
	if got := snap.Counters[`bandit.pulls{arm="bs0"}`]; got != 1 {
		t.Errorf("bs0 pulls = %d, want 1", got)
	}
	if got := snap.Counters[`bandit.pulls{arm="bs1"}`]; got != 2 {
		t.Errorf("bs1 pulls = %d, want 2", got)
	}
	if got := snap.Counters[`solve.fallbacks{policy="OL_GD",tier="flow"}`]; got != 2 {
		t.Errorf("reordered labels did not collapse to one series: %v", snap.Counters)
	}
}

// TestWritePrometheusExposition pins the text exposition format: one # TYPE
// header per family (not per series), dots become underscores, labeled series
// keep their labels, and histograms render cumulative le buckets plus
// _sum/_count.
func TestWritePrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim.slots").Add(15)
	r.CounterL("bandit.pulls", Label{"arm", "bs0"}).Add(3)
	r.CounterL("bandit.pulls", Label{"arm", "bs1"}).Add(4)
	r.Gauge("sim.cumulative_regret_ms").Set(12.5)
	h := r.Histogram("sim.decide_ms", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(99) // overflow bucket

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	if n := strings.Count(out, "# TYPE bandit_pulls counter"); n != 1 {
		t.Errorf("bandit_pulls TYPE header appears %d times, want 1:\n%s", n, out)
	}
	for _, want := range []string{
		"# TYPE sim_slots counter",
		"sim_slots 15",
		`bandit_pulls{arm="bs0"} 3`,
		`bandit_pulls{arm="bs1"} 4`,
		"# TYPE sim_cumulative_regret_ms gauge",
		"sim_cumulative_regret_ms 12.5",
		"# TYPE sim_decide_ms histogram",
		`sim_decide_ms_bucket{le="1"} 1`,
		`sim_decide_ms_bucket{le="2"} 2`,
		`sim_decide_ms_bucket{le="+Inf"} 3`,
		"sim_decide_ms_sum 101",
		"sim_decide_ms_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// bs0 sorts before bs1: the exposition must be deterministic.
	if strings.Index(out, `arm="bs0"`) > strings.Index(out, `arm="bs1"`) {
		t.Errorf("labeled series not in sorted order:\n%s", out)
	}
}

// TestPrometheusLabeledHistogram checks the le label merges after any series
// labels, keeping one family header across differently-labeled histograms.
func TestPrometheusLabeledHistogram(t *testing.T) {
	r := NewRegistry()
	r.HistogramL("solve.ms", []float64{1}, Label{"tier", "flow"}).Observe(0.5)
	r.HistogramL("solve.ms", []float64{1}, Label{"tier", "greedy"}).Observe(2)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if n := strings.Count(out, "# TYPE solve_ms histogram"); n != 1 {
		t.Errorf("solve_ms TYPE header appears %d times, want 1:\n%s", n, out)
	}
	for _, want := range []string{
		`solve_ms_bucket{tier="flow",le="1"} 1`,
		`solve_ms_bucket{tier="greedy",le="+Inf"} 1`,
		`solve_ms_sum{tier="flow"} 0.5`,
		`solve_ms_count{tier="greedy"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"sim.decide_ms": "sim_decide_ms",
		"9lives":        "_9lives",
		"a-b/c":         "a_b_c",
		"ok_name:x":     "ok_name:x",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestTelemetryServerEndpoints drives the HTTP surface: /metrics is valid
// 0.0.4 text exposition with labeled series, /snapshot decodes as a Snapshot,
// /events streams emitted trace events over SSE, and / is the index.
func TestTelemetryServerEndpoints(t *testing.T) {
	o := New(Options{})
	o.Inc("sim.slots")
	o.IncL("bandit.pulls", Label{"arm", "bs3"})

	ts, err := ServeTelemetry("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	resp, err := http.Get(ts.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, ct := readAll(t, resp), resp.Header.Get("Content-Type")
	if !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q, want 0.0.4 exposition", ct)
	}
	if !strings.Contains(body, `bandit_pulls{arm="bs3"} 1`) {
		t.Errorf("/metrics missing labeled series:\n%s", body)
	}

	resp, err = http.Get(ts.URL() + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(readAll(t, resp)), &snap); err != nil {
		t.Fatalf("/snapshot is not valid JSON: %v", err)
	}
	if snap.Counters["sim.slots"] != 1 {
		t.Errorf("/snapshot counters = %v", snap.Counters)
	}

	resp, err = http.Get(ts.URL() + "/")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); !strings.Contains(body, "/events") {
		t.Errorf("index page missing endpoint listing:\n%s", body)
	}
	resp, err = http.Get(ts.URL() + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d, want 404", resp.StatusCode)
	}

	// SSE: the subscriber attaches before the handler writes headers, so any
	// event emitted after Do returns is delivered.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL()+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Errorf("/events Content-Type = %q", got)
	}
	o.Emit(Event{Slot: 7, Name: "ping", Fields: Fields{"k": "v"}})
	sc := bufio.NewScanner(resp.Body)
	var sawEvent, sawData bool
	for sc.Scan() {
		line := sc.Text()
		if line == "event: ping" {
			sawEvent = true
		}
		if strings.HasPrefix(line, "data: ") && strings.Contains(line, `"slot":7`) {
			sawData = true
			break
		}
	}
	if !sawEvent || !sawData {
		t.Errorf("SSE stream missing event/data lines (event=%v data=%v): %v", sawEvent, sawData, sc.Err())
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestServeTelemetryErrors(t *testing.T) {
	if _, err := ServeTelemetry("127.0.0.1:0", nil); err == nil {
		t.Error("nil observer should fail")
	}
	if _, err := ServeTelemetry("definitely not an address", New(Options{})); err == nil {
		t.Error("bad address should fail at bind time")
	}
}

// TestEventHubDropsWhenFull checks the never-block contract: a subscriber
// that stops draining loses events instead of stalling Emit.
func TestEventHubDropsWhenFull(t *testing.T) {
	o := New(Options{})
	ch, cancel := o.Subscribe(1)
	defer cancel()
	o.Emit(Event{Name: "a"})
	o.Emit(Event{Name: "b"}) // buffer of 1 is full; must not block
	if ev := <-ch; ev.Name != "a" {
		t.Errorf("first delivered event = %q, want a", ev.Name)
	}
	select {
	case ev := <-ch:
		t.Errorf("event %q delivered past a full buffer, want it dropped", ev.Name)
	default:
	}
	cancel()
	cancel() // safe to call twice
}

// TestFlightRecorderRoundTrip writes a two-run artifact (the second run
// interrupted before its summary) and parses it back.
func TestFlightRecorderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rec := NewFlightRecorder(&buf)
	rec.RecordHeader(FlightHeader{Policy: "OL_GD", Slots: 2, Stations: 4, Seed: 9, TrackRegret: true})
	eps, cum := 0.5, 1.25
	rec.RecordSlot(FlightSlot{Policy: "OL_GD", Slot: 0, DelayMS: 3, Epsilon: &eps,
		ArmPulls: []int{1, 0, 0, 0}, FaultKinds: map[string]int{"outage": 1}, Solver: "simplex"})
	rec.RecordSlot(FlightSlot{Policy: "OL_GD", Slot: 1, DelayMS: 2, CumRegretMS: &cum})
	rec.RecordSummary(FlightSummary{Policy: "OL_GD", Slots: 2, AvgDelayMS: 2.5, CumRegretMS: &cum})
	rec.RecordHeader(FlightHeader{Policy: "Greedy_GD", Slots: 2})
	rec.RecordSlot(FlightSlot{Policy: "Greedy_GD", Slot: 0, DelayMS: 4})
	// No summary: the run was interrupted; the slots must still parse.
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}

	runs, err := ReadFlightRuns(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(runs))
	}
	r0 := runs[0]
	if r0.Header.Policy != "OL_GD" || r0.Header.Version != FlightVersion || !r0.Header.TrackRegret {
		t.Errorf("header = %+v", r0.Header)
	}
	if len(r0.Slots) != 2 || r0.Slots[0].Epsilon == nil || *r0.Slots[0].Epsilon != 0.5 {
		t.Errorf("slots = %+v", r0.Slots)
	}
	if r0.Slots[0].FaultKinds["outage"] != 1 || r0.Slots[0].Solver != "simplex" {
		t.Errorf("slot fault state = %+v", r0.Slots[0])
	}
	if r0.Summary == nil || r0.Summary.CumRegretMS == nil || *r0.Summary.CumRegretMS != 1.25 {
		t.Errorf("summary = %+v", r0.Summary)
	}
	if runs[1].Summary != nil {
		t.Error("interrupted run should have a nil summary")
	}
	if len(runs[1].Slots) != 1 {
		t.Errorf("interrupted run slots = %+v", runs[1].Slots)
	}
}

// TestFlightRecorderNilSafe: a nil recorder IS the disabled recorder.
func TestFlightRecorderNilSafe(t *testing.T) {
	var rec *FlightRecorder
	rec.RecordHeader(FlightHeader{})
	rec.RecordSlot(FlightSlot{})
	rec.RecordSummary(FlightSummary{})
	if err := rec.Flush(); err != nil {
		t.Errorf("nil Flush = %v", err)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestFlightRecorderLatchesErrors: write errors surface at Flush, keeping the
// per-slot path unconditional.
func TestFlightRecorderLatchesErrors(t *testing.T) {
	rec := NewFlightRecorder(failWriter{})
	for i := 0; i < 10000; i++ { // overflow the bufio buffer to force a write
		rec.RecordSlot(FlightSlot{Slot: i, Policy: "OL_GD"})
	}
	if err := rec.Flush(); err == nil {
		t.Error("expected the latched write error from Flush")
	}
}

func TestReadFlightRunsErrors(t *testing.T) {
	cases := map[string]string{
		"slot before header":    `{"type":"slot","policy":"x","slot":0}`,
		"summary before header": `{"type":"summary","policy":"x"}`,
		"future version":        fmt.Sprintf(`{"type":"header","version":%d,"policy":"x"}`, FlightVersion+1),
		"malformed line":        `{"type":`,
	}
	for name, line := range cases {
		if _, err := ReadFlightRuns(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
	// Unknown record types are forward-compatible and skipped.
	art := fmt.Sprintf(`{"type":"header","version":%d,"policy":"x","slots":1}`, FlightVersion) + "\n" +
		`{"type":"annotation","note":"from the future"}` + "\n" +
		`{"type":"slot","policy":"x","slot":0,"delay_ms":1}` + "\n"
	runs, err := ReadFlightRuns(strings.NewReader(art))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || len(runs[0].Slots) != 1 {
		t.Errorf("unknown-type artifact parsed as %+v", runs)
	}
}

// TestRegistryConcurrentLabeledHammer is the race-detector workout promised
// by `make race`: concurrent Inc/Add/Set/Observe on both plain and labeled
// series, trace Emit with a live subscriber, and snapshots/expositions taken
// mid-flight. Correctness check: total counts survive the storm.
func TestRegistryConcurrentLabeledHammer(t *testing.T) {
	o := New(Options{TraceWriter: io.Discard})
	ch, cancelSub := o.Subscribe(4)
	defer cancelSub()
	go func() { // slow subscriber: forces the drop path too
		for range ch {
			time.Sleep(time.Microsecond)
		}
	}()

	const workers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			arm := Label{Key: "arm", Value: fmt.Sprintf("bs%d", w%3)}
			for i := 0; i < iters; i++ {
				o.Inc("hammer.total")
				o.IncL("hammer.pulls", arm)
				o.AddL("hammer.bytes", 2, arm, Label{Key: "dir", Value: "in"})
				o.Set("hammer.gauge", float64(i))
				o.SetL("hammer.gauge_by", float64(i), arm)
				o.Observe("hammer.latency", float64(i%10))
				o.ObserveL("hammer.latency_by", float64(i%10), arm)
				if i%50 == 0 {
					o.Emit(Event{Slot: i, Name: "hammer", Fields: Fields{"w": w}})
				}
			}
		}()
	}
	// Readers run concurrently with the writers.
	var rg sync.WaitGroup
	stop := make(chan struct{})
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				snap := o.Snapshot()
				_ = snap.String()
				var sink bytes.Buffer
				_ = snap.WritePrometheus(&sink)
				_ = snap.WriteJSON(io.Discard)
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()

	snap := o.Snapshot()
	if got := snap.Counters["hammer.total"]; got != workers*iters {
		t.Errorf("hammer.total = %d, want %d", got, workers*iters)
	}
	var pulls int64
	for k, v := range snap.Counters {
		if strings.HasPrefix(k, "hammer.pulls{") {
			pulls += v
		}
	}
	if pulls != workers*iters {
		t.Errorf("labeled pulls sum = %d, want %d", pulls, workers*iters)
	}
	if h := snap.Histograms[`hammer.latency_by{arm="bs0"}`]; h.Count == 0 {
		t.Error("labeled histogram recorded nothing")
	}
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
}
