package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/mecsim/l4e/internal/metrics"
	"github.com/mecsim/l4e/internal/obs"
)

// writeArtifact records a synthetic run whose cumulative regret follows cum
// and whose middle slots carry an injected fault + degradation.
func writeArtifact(t *testing.T, path, policy string, cum []float64) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec := obs.NewFlightRecorder(f)
	rec.RecordHeader(obs.FlightHeader{Policy: policy, Slots: len(cum), Stations: 4, Requests: 8, TrackRegret: true, Chaos: true})
	prev := 0.0
	for i, c := range cum {
		slot := obs.FlightSlot{Policy: policy, Slot: i, DelayMS: 1 + 0.1*float64(i%7), DecideMS: 0.2}
		inst := c - prev
		cc := c
		slot.SlotRegretMS = &inst
		slot.CumRegretMS = &cc
		prev = c
		if i >= 10 && i < 13 {
			slot.FaultsInjected = 2
			slot.FaultKinds = map[string]int{"outage": 1, "spike": 1}
			slot.Degraded = true
			slot.FallbackSolves = 1
			slot.Solver = "greedy"
		}
		rec.RecordSlot(slot)
	}
	rec.RecordSummary(obs.FlightSummary{Policy: policy, Slots: len(cum), CumRegretMS: &prev})
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
}

func cumSqrt(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 5 * math.Sqrt(float64(i+1))
	}
	return out
}

func cumLinear(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 2 * float64(i+1)
	}
	return out
}

func TestMecstatVerdictsAndTimeline(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "sub.jsonl")
	lin := filepath.Join(dir, "lin.jsonl")
	writeArtifact(t, sub, "OL_GD", cumSqrt(200))
	writeArtifact(t, lin, "Greedy_GD", cumLinear(200))

	var buf bytes.Buffer
	if err := run(&buf, []string{sub, lin}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"OL_GD", "Greedy_GD", "sublinear", "linear", "10-12", "outage=3", "delay distribution", "p50", "p99.9", "ALL"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// writeDelays records a run whose per-slot delays are exactly delays.
func writeDelays(t *testing.T, path, policy string, delays []float64) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec := obs.NewFlightRecorder(f)
	rec.RecordHeader(obs.FlightHeader{Policy: policy, Slots: len(delays), Stations: 4, Requests: 8})
	for i, d := range delays {
		rec.RecordSlot(obs.FlightSlot{Policy: policy, Slot: i, DelayMS: d})
	}
	rec.RecordSummary(obs.FlightSummary{Policy: policy, Slots: len(delays)})
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
}

// delayRow returns the fields of the delay-distribution row named name.
func delayRow(t *testing.T, out, name string) []string {
	t.Helper()
	_, table, ok := strings.Cut(out, "delay distribution")
	if !ok {
		t.Fatalf("no delay distribution table in:\n%s", out)
	}
	for _, line := range strings.Split(table, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == name {
			return f
		}
	}
	return nil
}

// TestMecstatExactDelayTable pins the delay table: a single run renders no
// ALL row, and with several runs the ALL row holds the exact percentiles of
// the concatenated per-slot delays, p99.9 included.
func TestMecstatExactDelayTable(t *testing.T) {
	dir := t.TempDir()
	var d1, d2 []float64
	for i := 0; i < 50; i++ {
		d1 = append(d1, float64(i+1))
	}
	for i := 0; i < 70; i++ {
		d2 = append(d2, 100+3*float64(i))
	}
	one := filepath.Join(dir, "one.jsonl")
	two := filepath.Join(dir, "two.jsonl")
	writeDelays(t, one, "OL_GD", d1)
	writeDelays(t, two, "Greedy_GD", d2)

	var buf bytes.Buffer
	if err := run(&buf, []string{one}); err != nil {
		t.Fatal(err)
	}
	if row := delayRow(t, buf.String(), "ALL"); row != nil {
		t.Errorf("single run rendered an ALL row: %v", row)
	}

	buf.Reset()
	if err := run(&buf, []string{one, two}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	header := delayRow(t, out, "policy")
	all := delayRow(t, out, "ALL")
	if all == nil || len(all) != len(header) {
		t.Fatalf("ALL row %v does not match header %v in:\n%s", all, header, out)
	}
	col := -1
	for i, h := range header {
		if h == "p99.9" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("no p99.9 column in %v", header)
	}
	want, err := metrics.Percentile(append(append([]float64(nil), d1...), d2...), 99.9)
	if err != nil {
		t.Fatal(err)
	}
	own, err := metrics.Percentile(d2, 99.9)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%.3f", own) == fmt.Sprintf("%.3f", want) {
		t.Fatalf("test data cannot tell the merged p99.9 %v from one run's %v", want, own)
	}
	if got := all[col]; got != fmt.Sprintf("%.3f", want) {
		t.Errorf("ALL p99.9 = %s, want %.3f (exact percentile of the concatenated delays)", got, want)
	}
	if got := all[len(all)-1]; got != fmt.Sprintf("%.3f", d2[len(d2)-1]) {
		t.Errorf("ALL max = %s, want %.3f", got, d2[len(d2)-1])
	}
}

func TestMecstatJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	writeArtifact(t, path, "OL_GD", cumSqrt(100))

	var buf bytes.Buffer
	if err := run(&buf, []string{"-json", path}); err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Runs []struct {
			Policy      string   `json:"policy"`
			Slots       int      `json:"slots"`
			CumRegretMS *float64 `json:"cum_regret_ms"`
			RegretFit   *struct {
				Verdict string `json:"verdict"`
			} `json:"regret_fit"`
			Degradation struct {
				FaultsByKind map[string]int `json:"faults_by_kind"`
			} `json:"degradation"`
			DelayPct map[string]float64 `json:"delay_percentiles_ms"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &payload); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(payload.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(payload.Runs))
	}
	r := payload.Runs[0]
	if r.Policy != "OL_GD" || r.Slots != 100 {
		t.Errorf("run = %+v", r)
	}
	if r.RegretFit == nil || r.RegretFit.Verdict != "sublinear" {
		t.Errorf("regret fit = %+v, want sublinear", r.RegretFit)
	}
	if r.Degradation.FaultsByKind["outage"] != 3 {
		t.Errorf("faults by kind = %v", r.Degradation.FaultsByKind)
	}
	var keys []string
	for k := range r.DelayPct {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got, want := strings.Join(keys, " "), "p10 p25 p50 p75 p90 p95 p99 p99.9"; got != want {
		t.Errorf("delay_percentiles_ms keys = %s, want %s", got, want)
	}
}

func TestMecstatErrors(t *testing.T) {
	if err := run(io.Discard, nil); err == nil {
		t.Error("expected an error with no artifacts")
	}
	if err := run(io.Discard, []string{"-bogus"}); err == nil {
		t.Error("expected an error for an unknown flag")
	}
	if err := run(io.Discard, []string{filepath.Join(t.TempDir(), "missing.jsonl")}); err == nil {
		t.Error("expected an error for a missing file")
	}
}

func TestFitRegretZero(t *testing.T) {
	f := fitRegret(make([]float64, 50))
	if f.Verdict != "zero" {
		t.Errorf("verdict = %q, want zero", f.Verdict)
	}
}
