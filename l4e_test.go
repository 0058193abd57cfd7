package l4e

import (
	"strings"
	"testing"
)

func TestNewScenarioDefaults(t *testing.T) {
	s, err := NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	if s.Net.NumStations() != 100 {
		t.Errorf("stations = %d, want 100", s.Net.NumStations())
	}
	if !s.DemandsGiven {
		t.Error("demands should default to given")
	}
	if len(s.Workload.Requests) == 0 {
		t.Error("empty workload")
	}
}

func TestNewScenarioAS1755(t *testing.T) {
	s, err := NewScenario(WithTopology(TopologyAS1755), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if s.Net.NumStations() != 87 {
		t.Errorf("AS1755 stations = %d, want 87", s.Net.NumStations())
	}
	if s.Net.Name != "as1755" {
		t.Errorf("name = %q", s.Net.Name)
	}
}

func TestNewScenarioErrors(t *testing.T) {
	if _, err := NewScenario(WithTopology(Topology(99))); err == nil {
		t.Error("unknown topology accepted")
	}
	if _, err := NewScenario(WithStations(1)); err == nil {
		t.Error("1-station GT-ITM accepted")
	}
	bad := WorkloadConfig{}
	if _, err := NewScenario(WithWorkloadConfig(bad)); err == nil {
		t.Error("zero workload config accepted")
	}
	if _, err := NewScenario(WithChaos("bogus:0.1")); err == nil {
		t.Error("unknown chaos injector accepted")
	}
	if _, err := NewScenario(WithChaos("outage:2")); err == nil {
		t.Error("out-of-range outage rate accepted")
	}
}

func TestNewPolicyAllNames(t *testing.T) {
	s, err := NewScenario(WithStations(20))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range PolicyNames() {
		p, err := s.NewPolicy(name)
		if err != nil {
			t.Errorf("NewPolicy(%q): %v", name, err)
			continue
		}
		if p.Name() == "" {
			t.Errorf("policy %q has empty display name", name)
		}
	}
	if _, err := s.NewPolicy("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestScenarioCompareSmall(t *testing.T) {
	wcfg := WorkloadConfig{
		NumRequests: 10, NumServices: 3, Horizon: 15, NumClusters: 3,
		BasicDemandMin: 1, BasicDemandMax: 3, BurstScale: 5,
		BurstOnProb: 0.1, BurstStayProb: 0.7, CUnit: 40,
	}
	s, err := NewScenario(WithStations(15), WithWorkloadConfig(wcfg), WithSlots(15))
	if err != nil {
		t.Fatal(err)
	}
	results, err := s.Compare("OL_GD", "Greedy_GD", "Pri_GD")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.AvgDelayMS <= 0 {
			t.Errorf("%s: avg delay %v", r.Policy, r.AvgDelayMS)
		}
		if len(r.PerSlotDelayMS) != 15 {
			t.Errorf("%s: %d slots", r.Policy, len(r.PerSlotDelayMS))
		}
	}
	if _, err := s.Compare(); err == nil {
		t.Error("empty compare accepted")
	}
}

func TestRunWithRegret(t *testing.T) {
	wcfg := WorkloadConfig{
		NumRequests: 8, NumServices: 2, Horizon: 10, NumClusters: 2,
		BasicDemandMin: 1, BasicDemandMax: 2, BurstScale: 4,
		BurstOnProb: 0.1, BurstStayProb: 0.7, CUnit: 40,
	}
	s, err := NewScenario(WithStations(12), WithWorkloadConfig(wcfg))
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.NewPolicy("OL_GD")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWithRegret(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regret == nil || res.Regret.Slots() != 10 {
		t.Errorf("regret missing or wrong length: %+v", res.Regret)
	}
}

func TestTopologyString(t *testing.T) {
	if TopologyGTITM.String() != "gt-itm" || TopologyAS1755.String() != "as1755" {
		t.Error("topology strings wrong")
	}
	if Topology(0).String() != "Topology(0)" {
		t.Error("invalid topology string wrong")
	}
}

func TestFigure3SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction in -short mode")
	}
	cfg := ExperimentConfig{Repeats: 1, Slots: 12, Seed: 2, SmoothWindow: 3}
	res, err := Figure3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 2 {
		t.Fatalf("got %d tables", len(res.Tables))
	}
	out, err := res.Render()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig3(a)", "Fig3(b)", "OL_GD", "Greedy_GD", "Pri_GD"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered figure missing %q", want)
		}
	}
}

func TestFiguresRegistryComplete(t *testing.T) {
	figs := Figures()
	for _, name := range []string{"fig3", "fig4", "fig5", "fig6", "fig7"} {
		if figs[name] == nil {
			t.Errorf("figure %q missing from registry", name)
		}
	}
}

func TestSeriesExperimentParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	// Concurrent repeats must merge deterministically: two identical runs
	// produce identical averaged series.
	cfg := ExperimentConfig{Repeats: 3, Slots: 8, Seed: 5, SmoothWindow: 1, Parallel: true}
	build := func(seed int64) (*Scenario, error) {
		wcfg := WorkloadConfig{
			NumRequests: 8, NumServices: 2, Horizon: 8, NumClusters: 2,
			BasicDemandMin: 1, BasicDemandMax: 2, BurstScale: 3,
			BurstOnProb: 0.1, BurstStayProb: 0.7, CUnit: 40,
		}
		return NewScenario(WithStations(12), WithSeed(seed), WithSlots(8), WithWorkloadConfig(wcfg))
	}
	d1, _, err := seriesExperiment(cfg, []string{"Greedy_GD", "Pri_GD"}, build)
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := seriesExperiment(cfg, []string{"Greedy_GD", "Pri_GD"}, build)
	if err != nil {
		t.Fatal(err)
	}
	for pi := range d1 {
		for ti := range d1[pi] {
			if d1[pi][ti] != d2[pi][ti] {
				t.Fatalf("series (%d,%d) differs between runs: %v vs %v", pi, ti, d1[pi][ti], d2[pi][ti])
			}
		}
	}
}

func TestWithRemoteDC(t *testing.T) {
	s, err := NewScenario(WithStations(20), WithRemoteDC(), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if s.Net.NumStations() != 21 {
		t.Fatalf("stations = %d, want 21 (20 + DC)", s.Net.NumStations())
	}
	dc := s.Net.Stations[20]
	if dc.Class.String() != "remote-dc" {
		t.Errorf("last station class = %v, want remote-dc", dc.Class)
	}
	if dc.Delay.Mean < 50 || dc.Delay.Mean > 100 {
		t.Errorf("DC delay mean = %v, want [50,100]", dc.Delay.Mean)
	}
	// Services are pre-deployed at the DC: no instantiation delay.
	for k, d := range s.Workload.InstDelayMS[20] {
		if d != 0 {
			t.Errorf("DC instantiation delay for service %d = %v, want 0", k, d)
		}
	}
	// The scenario still runs end to end.
	wcfg := WorkloadConfig{
		NumRequests: 8, NumServices: 2, Horizon: 5, NumClusters: 2,
		BasicDemandMin: 1, BasicDemandMax: 2, BurstScale: 3,
		BurstOnProb: 0.1, BurstStayProb: 0.7, CUnit: 40,
	}
	s2, err := NewScenario(WithStations(15), WithRemoteDC(), WithWorkloadConfig(wcfg), WithSlots(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Compare("Greedy_GD", "OL_GD"); err != nil {
		t.Fatal(err)
	}
}

func TestWithWarmCacheLowersDelay(t *testing.T) {
	wcfg := WorkloadConfig{
		NumRequests: 10, NumServices: 3, Horizon: 20, NumClusters: 3,
		BasicDemandMin: 1, BasicDemandMax: 3, BurstScale: 4,
		BurstOnProb: 0.1, BurstStayProb: 0.7, CUnit: 40,
	}
	run := func(warm bool) float64 {
		s, err := NewScenario(WithStations(15), WithSeed(3),
			WithWorkloadConfig(wcfg), WithWarmCache(warm))
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.NewPolicy("Greedy_GD")
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgDelayMS
	}
	warm, cold := run(true), run(false)
	if warm >= cold {
		t.Errorf("warm-cache delay %v not below cold %v", warm, cold)
	}
}

// TestStationOutagesSurvive runs OL_GD under i.i.d. station outages: the
// horizon must complete and the outages must actually land.
func TestStationOutagesSurvive(t *testing.T) {
	wcfg := WorkloadConfig{
		NumRequests: 8, NumServices: 2, Horizon: 20, NumClusters: 2,
		BasicDemandMin: 1, BasicDemandMax: 2, BurstScale: 3,
		BurstOnProb: 0.1, BurstStayProb: 0.7, CUnit: 40,
	}
	s, err := NewScenario(WithStations(20), WithSeed(4),
		WithWorkloadConfig(wcfg), WithChaos("outage:0.05:4"), WithChaosSeed(4+6910))
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.NewPolicy("OL_GD")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedStationSlots == 0 {
		t.Error("no station outages injected at rate 0.05")
	}
	if len(res.PerSlotDelayMS) != 20 {
		t.Errorf("run truncated: %d slots", len(res.PerSlotDelayMS))
	}
}

func TestWithScheduledEvents(t *testing.T) {
	s, err := NewScenario(WithStations(20), WithSeed(5), WithScheduledEvents(4))
	if err != nil {
		t.Fatal(err)
	}
	// Bursts must appear only in contiguous scheduled windows; verify at
	// least one burst slot exists and occupancy correlates.
	bursts := 0
	for tt := range s.Workload.ClusterBurst {
		for _, b := range s.Workload.ClusterBurst[tt] {
			bursts += b
		}
	}
	if bursts == 0 {
		t.Error("no scheduled bursts generated")
	}
}

func TestAllFiguresSmokeTest(t *testing.T) {
	// Every figure runner executes end to end at a tiny horizon (OL_GAN
	// stays in its warmup fallback, keeping this fast). Full-scale series
	// are produced by cmd/mecsim and the benches.
	if testing.Short() {
		t.Skip("figure smoke tests in -short mode")
	}
	cfg := ExperimentConfig{Repeats: 1, Slots: 6, Seed: 3, SmoothWindow: 2, Parallel: true}
	for name, fig := range Figures() {
		res, err := fig(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Tables) < 2 {
			t.Errorf("%s: %d tables", name, len(res.Tables))
		}
		for _, tab := range res.Tables {
			if err := tab.Validate(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if _, err := tab.Render(); err != nil {
				t.Errorf("%s render: %v", name, err)
			}
		}
	}
}

// TestScenarioRunsPastWorkloadHorizon runs 150 slots, past the default
// workload's 100: the scenario generates a trace that long instead of
// failing with "Slots = 150 outside [0,100]".
func TestScenarioRunsPastWorkloadHorizon(t *testing.T) {
	s, err := NewScenario(WithStations(10), WithSlots(150))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Compare("Greedy_GD")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res[0].PerSlotDelayMS); got != 150 {
		t.Fatalf("%d slots run, want 150", got)
	}
}
