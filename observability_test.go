package l4e

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/mecsim/l4e/internal/obs"
)

func obsTestScenario(t *testing.T, o *Observer, extra ...ScenarioOption) *Scenario {
	t.Helper()
	opts := append([]ScenarioOption{WithStations(15), WithWorkloadConfig(obsTestWorkload(10)),
		WithSlots(15), WithSeed(11), WithObserver(o)}, extra...)
	s, err := NewScenario(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// obsTestWorkload is obsTestScenario's workload with the given request count.
// At 10 requests x 15 stations every slot LP is within the exact simplex's
// size limit (200 assignment variables); at 20 it solves as min-cost flow.
func obsTestWorkload(requests int) WorkloadConfig {
	return WorkloadConfig{
		NumRequests: requests, NumServices: 3, Horizon: 15, NumClusters: 3,
		BasicDemandMin: 1, BasicDemandMax: 3, BurstScale: 5,
		BurstOnProb: 0.1, BurstStayProb: 0.7, CUnit: 40,
	}
}

// TestObserverDisabledIsBitIdentical is the no-observer determinism guard:
// attaching an observer — and now a flight recorder — must not perturb the
// simulation (instrumentation is read-only and consumes no randomness), so
// per-slot delays are bit-identical with and without them.
func TestObserverDisabledIsBitIdentical(t *testing.T) {
	run := func(o *Observer, extra ...ScenarioOption) []*Result {
		results, err := obsTestScenario(t, o, extra...).Compare("OL_GD", "Greedy_GD", "Pri_GD")
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	check := func(label string, plain, observed []*Result) {
		t.Helper()
		for i := range plain {
			for tt, d := range plain[i].PerSlotDelayMS {
				if observed[i].PerSlotDelayMS[tt] != d {
					t.Fatalf("%s: %s slot %d: %x (plain) != %x (observed)",
						label, plain[i].Policy, tt, d, observed[i].PerSlotDelayMS[tt])
				}
			}
		}
	}
	var buf bytes.Buffer
	plain := run(nil)
	traced := run(NewObserver(ObserverOptions{TraceWriter: &buf}))
	check("tracer", plain, traced)
	if buf.Len() == 0 {
		t.Fatal("observed run emitted no trace events")
	}

	var fbuf bytes.Buffer
	fr := NewFlightRecorder(&fbuf)
	recorded := run(NewObserver(ObserverOptions{}), WithFlightRecorder(fr))
	check("flight", plain, recorded)
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	runs, err := ReadFlightRuns(bytes.NewReader(fbuf.Bytes()))
	if err != nil {
		t.Fatalf("flight artifact does not parse: %v", err)
	}
	if len(runs) != 3 {
		t.Fatalf("flight artifact holds %d runs, want 3 (one per compared policy)", len(runs))
	}
}

// TestObserverTraceAndMetrics checks the integration surface end to end: one
// "slot" span per simulated slot per policy, the documented fields on each,
// and a snapshot with the advertised named series.
func TestObserverTraceAndMetrics(t *testing.T) {
	var buf bytes.Buffer
	o := NewObserver(ObserverOptions{TraceWriter: &buf, SampleRuntime: true})
	s := obsTestScenario(t, o)
	p, err := s.NewPolicy("OL_GD")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunWithRegret(p); err != nil {
		t.Fatal(err)
	}

	events, err := obs.DecodeEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	slotEvents := map[int]bool{}
	decides := 0
	for _, ev := range events {
		switch ev.Name {
		case "slot":
			slotEvents[ev.Slot] = true
			for _, field := range []string{"delay_ms", "decide_ms", "requests", "instances_active"} {
				if _, ok := ev.Fields[field]; !ok {
					t.Errorf("slot event missing field %q: %v", field, ev.Fields)
				}
			}
		case "olgd.decide":
			decides++
			for _, field := range []string{"epsilon", "solver", "solver_iterations", "arms"} {
				if _, ok := ev.Fields[field]; !ok {
					t.Errorf("olgd.decide missing field %q: %v", field, ev.Fields)
				}
			}
		}
	}
	if len(slotEvents) != 15 || decides != 15 {
		t.Errorf("got %d slot spans and %d decide spans, want 15 each", len(slotEvents), decides)
	}

	snap := o.Snapshot()
	if n := len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms); n < 10 {
		t.Errorf("snapshot has %d series, want >= 10", n)
	}
	for _, name := range []string{"sim.slots", "lp.solves", "bandit.observations", "lp.workspace_reuses"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("missing counter %q (have %v)", name, snap.Counters)
		}
	}
	for _, name := range []string{"sim.cumulative_regret_ms", "runtime.heap_alloc_bytes"} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("missing gauge %q (have %v)", name, snap.Gauges)
		}
	}
	for _, name := range []string{"sim.decide_ms", "sim.slot_delay_ms", "lp.iterations"} {
		if _, ok := snap.Histograms[name]; !ok {
			t.Errorf("missing histogram %q", name)
		}
	}
	if got := snap.Counters["sim.slots"]; got != 15 {
		t.Errorf("sim.slots = %d, want 15", got)
	}
}

// TestObserverSharedAcrossParallelRepeats drives the experiment harness's
// Parallel path with a single shared observer — the configuration the race
// detector must clear (lock-free registry, mutex-guarded tracer).
func TestObserverSharedAcrossParallelRepeats(t *testing.T) {
	var buf bytes.Buffer
	o := NewObserver(ObserverOptions{TraceWriter: &buf})
	cfg := ExperimentConfig{Repeats: 3, Slots: 6, Seed: 1, SmoothWindow: 1, Parallel: true, Observer: o}
	if _, err := Figures()["fig3"](cfg); err != nil {
		t.Fatal(err)
	}
	snap := o.Snapshot()
	if snap.Counters["sim.slots"] == 0 {
		t.Error("shared observer recorded no slots")
	}
	if _, err := obs.DecodeEvents(&buf); err != nil {
		t.Fatalf("interleaved trace stream is not valid JSONL: %v", err)
	}
}

// TestObserverFlightArtifact runs a regret-tracked OL_GD scenario with only a
// flight recorder attached (no observer — the recorder must work standalone)
// and checks the artifact carries the per-slot learner and regret state that
// cmd/mecstat consumes.
func TestObserverFlightArtifact(t *testing.T) {
	var fbuf bytes.Buffer
	fr := NewFlightRecorder(&fbuf)
	s := obsTestScenario(t, nil, WithFlightRecorder(fr))
	p, err := s.NewPolicy("OL_GD")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWithRegret(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}

	runs, err := ReadFlightRuns(bytes.NewReader(fbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(runs))
	}
	run := runs[0]
	h := run.Header
	if h.Policy != "OL_GD" || h.Slots != 15 || h.Stations != 15 || !h.TrackRegret {
		t.Errorf("header = %+v", h)
	}
	if len(run.Slots) != 15 {
		t.Fatalf("artifact holds %d slot records, want 15", len(run.Slots))
	}
	for _, slot := range run.Slots {
		if slot.Epsilon == nil || slot.Explored == nil {
			t.Fatalf("slot %d missing bandit exploration state: %+v", slot.Slot, slot)
		}
		if len(slot.ArmPulls) != 15 || len(slot.ArmMeans) != 15 {
			t.Fatalf("slot %d arm stats have %d/%d entries, want 15 each",
				slot.Slot, len(slot.ArmPulls), len(slot.ArmMeans))
		}
		if slot.CumRegretMS == nil || slot.OracleDelayMS == nil {
			t.Fatalf("slot %d missing regret fields: %+v", slot.Slot, slot)
		}
		if slot.Solver == "" {
			t.Errorf("slot %d missing solve-ladder tier", slot.Slot)
		}
	}
	if run.Summary == nil {
		t.Fatal("artifact missing the closing summary")
	}
	if run.Summary.CumRegretMS == nil || res.Regret == nil {
		t.Fatal("summary or result missing cumulative regret")
	}
	last := run.Slots[len(run.Slots)-1]
	if *run.Summary.CumRegretMS != *last.CumRegretMS {
		t.Errorf("summary regret %g != final slot regret %g",
			*run.Summary.CumRegretMS, *last.CumRegretMS)
	}
}

// TestObserverTelemetryEndpoints serves a populated observer over HTTP and
// checks the three endpoints: Prometheus exposition with the labeled bandit
// series, the JSON snapshot, and the live SSE event stream.
func TestObserverTelemetryEndpoints(t *testing.T) {
	o := NewObserver(ObserverOptions{})
	s := obsTestScenario(t, o)
	p, err := s.NewPolicy("OL_GD")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(p); err != nil {
		t.Fatal(err)
	}

	ts, err := ServeTelemetry("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(ts.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		if _, err := body.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return body.String(), resp.Header.Get("Content-Type")
	}

	metrics, ct := get("/metrics")
	if !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q, want Prometheus 0.0.4", ct)
	}
	for _, want := range []string{"sim_slots 15", `bandit_pulls{arm="`, "# TYPE sim_decide_ms histogram"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	snapBody, _ := get("/snapshot")
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(snapBody), &snap); err != nil {
		t.Fatalf("/snapshot is not valid JSON: %v", err)
	}
	if snap.Counters["sim.slots"] != 15 {
		t.Errorf("/snapshot sim.slots = %d, want 15", snap.Counters["sim.slots"])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL()+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The subscriber is attached once headers arrive, so a second run's
	// events stream to the client.
	done := make(chan error, 1)
	go func() {
		_, err := s.Run(p)
		done <- err
	}()
	sc := bufio.NewScanner(resp.Body)
	found := false
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "data: ") && strings.Contains(line, `"slot"`) {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no slot events arrived on /events: %v", sc.Err())
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
