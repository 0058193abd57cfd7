package l4e

import (
	"bytes"
	"math"
	"testing"

	"github.com/mecsim/l4e/internal/algorithms"
	"github.com/mecsim/l4e/internal/caching"
	"github.com/mecsim/l4e/internal/flow/flowref"
	"github.com/mecsim/l4e/internal/obs"
)

// chaosMatrixPolicies are the paper's five policies the chaos matrix sweeps.
var chaosMatrixPolicies = []string{"OL_GD", "OL_GAN", "Greedy_GD", "Pri_GD", "OL_Reg"}

// chaosScenario builds the small environment every matrix cell runs on: 20
// stations, 24 requests, a 12-slot horizon — large enough for regions and
// flow-scale solves, small enough to sweep injector x policy quickly.
func chaosScenario(t *testing.T, spec string, opts ...ScenarioOption) *Scenario {
	t.Helper()
	wcfg := WorkloadConfig{
		NumRequests:    24,
		NumServices:    6,
		Horizon:        12,
		NumClusters:    4,
		BasicDemandMin: 2,
		BasicDemandMax: 5,
		BurstScale:     6,
		BurstOnProb:    0.1,
		BurstStayProb:  0.7,
		CUnit:          40,
	}
	s, err := NewScenario(append([]ScenarioOption{
		WithStations(20),
		WithSeed(3),
		WithWorkloadConfig(wcfg),
		WithChaos(spec),
		WithChaosSeed(101),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestChaosMatrix sweeps every injector kind across all five policies. The
// never-abort contract: each cell must complete its full horizon with finite
// per-slot delays, whatever the schedule throws at it.
func TestChaosMatrix(t *testing.T) {
	specs := map[string]string{
		"outage":   "outage:0.3:2",
		"regional": "regional:0.3:2",
		"brownout": "brownout:0.3:0.3:2",
		"spike":    "spike:0.3:3:2",
		"feedback": "feedback:0.3:0.3",
		"surge":    "surge:0.3:3:2",
		"blackout": "blackout:5:1",
		"combined": "regional:0.2:2,feedback:0.2:0.1,spike:0.2:3:2",
	}
	for label, spec := range specs {
		label, spec := label, spec
		t.Run(label, func(t *testing.T) {
			t.Parallel()
			s := chaosScenario(t, spec)
			for _, name := range chaosMatrixPolicies {
				p, err := s.NewPolicy(name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run(p)
				if err != nil {
					t.Fatalf("%s under %q aborted: %v", name, spec, err)
				}
				if got := len(res.PerSlotDelayMS); got != 12 {
					t.Fatalf("%s under %q: horizon truncated to %d slots", name, spec, got)
				}
				for tt, d := range res.PerSlotDelayMS {
					if math.IsNaN(d) || math.IsInf(d, 0) {
						t.Fatalf("%s under %q: slot %d delay %v not finite", name, spec, tt, d)
					}
				}
				if res.FaultsInjected == 0 {
					t.Errorf("%s under %q: no faults recorded as injected", name, spec)
				}
			}
		})
	}
}

// TestChaosIncrementalWarmStateSurvivesFaults runs OL_GD — which carries its
// network-simplex basis from slot to slot — under injected faults. A fault
// that poisoned the carried basis would surface as a wrong slot optimum, so
// every slot the flow rung solves must reach the LP objective the cold SSP
// referee (internal/flow/flowref) reaches on the same slot problem, within
// 1e-9 relative. The run must also complete its horizon, actually warm-start,
// and replay bit-identically.
func TestChaosIncrementalWarmStateSurvivesFaults(t *testing.T) {
	specs := map[string]string{
		"outage":   "outage:0.3:2",
		"blackout": "blackout:4:2",
		"combined": "regional:0.2:2,feedback:0.2:0.1,spike:0.2:3:2",
	}
	for label, spec := range specs {
		label, spec := label, spec
		t.Run(label, func(t *testing.T) {
			t.Parallel()
			run := func() (*Result, []obs.Event, *problemProbe) {
				var buf bytes.Buffer
				o := NewObserver(ObserverOptions{TraceWriter: &buf})
				s := chaosScenario(t, spec, WithObserver(o))
				p, err := s.NewPolicy("OL_GD")
				if err != nil {
					t.Fatal(err)
				}
				probe := &problemProbe{Policy: p, problems: map[int]*caching.Problem{}}
				res, err := s.Run(probe)
				if err != nil {
					t.Fatalf("OL_GD under %q aborted: %v", spec, err)
				}
				if err := o.Flush(); err != nil {
					t.Fatal(err)
				}
				events, err := obs.DecodeEvents(&buf)
				if err != nil {
					t.Fatal(err)
				}
				return res, events, probe
			}
			res, events, probe := run()
			if got := len(res.PerSlotDelayMS); got != 12 {
				t.Fatalf("horizon truncated to %d slots", got)
			}
			if res.FaultsInjected == 0 {
				t.Fatal("no faults injected; the survival check is vacuous")
			}
			if res.WarmSolves == 0 {
				t.Error("OL_GD never warm-started")
			}
			checked := 0
			for _, ev := range events {
				if ev.Name != "olgd.decide" || ev.Fields["solver"] != "flow" {
					continue
				}
				got, ok := ev.Fields["lp_objective_ms"].(float64)
				if !ok {
					t.Fatalf("slot %d: decide event without lp_objective_ms: %+v", ev.Slot, ev)
				}
				want, err := coldSSPObjective(probe.problems[ev.Slot])
				if err != nil {
					t.Fatalf("slot %d: cold SSP reference: %v", ev.Slot, err)
				}
				if math.Abs(got-want) > 1e-9*math.Abs(want) {
					t.Errorf("slot %d: LP objective %v, cold SSP %v", ev.Slot, got, want)
				}
				checked++
			}
			if checked == 0 {
				t.Fatal("no slot was solved on the flow rung; the objective check is vacuous")
			}
			replay, _, _ := run()
			for tt, d := range res.PerSlotDelayMS {
				if replay.PerSlotDelayMS[tt] != d {
					t.Fatalf("slot %d: replay %x != %x — warm state is nondeterministic under chaos",
						tt, replay.PerSlotDelayMS[tt], d)
				}
			}
			if replay.WarmSolves != res.WarmSolves || replay.SkippedSolves != res.SkippedSolves ||
				replay.FallbackSolves != res.FallbackSolves {
				t.Errorf("replay solve accounting diverged: warm %d/%d skip %d/%d fallback %d/%d",
					replay.WarmSolves, res.WarmSolves, replay.SkippedSolves, res.SkippedSolves,
					replay.FallbackSolves, res.FallbackSolves)
			}
		})
	}
}

// problemProbe wraps a policy and keeps a deep copy of every slot problem as
// the policy priced it (Decide fills in its delay estimates), keyed by slot.
type problemProbe struct {
	algorithms.Policy
	problems map[int]*caching.Problem
}

func (p *problemProbe) SetObserver(o *obs.Observer) {
	if s, ok := p.Policy.(algorithms.ObserverSetter); ok {
		s.SetObserver(o)
	}
}

func (p *problemProbe) Decide(view *algorithms.SlotView) (*caching.Assignment, error) {
	a, err := p.Policy.Decide(view)
	src := view.Problem
	cp := *src
	cp.Requests = append([]caching.RequestSpec(nil), src.Requests...)
	cp.CapacityMHz = append([]float64(nil), src.CapacityMHz...)
	cp.UnitDelayMS = append([]float64(nil), src.UnitDelayMS...)
	cp.InstDelayMS = make([][]float64, len(src.InstDelayMS))
	for i, row := range src.InstDelayMS {
		cp.InstDelayMS[i] = append([]float64(nil), row...)
	}
	if src.AccessLatencyMS != nil {
		cp.AccessLatencyMS = make([][]float64, len(src.AccessLatencyMS))
		for l, row := range src.AccessLatencyMS {
			cp.AccessLatencyMS[l] = append([]float64(nil), row...)
		}
	}
	p.problems[view.T] = &cp
	return a, err
}

// coldSSPObjective solves p's min-cost-flow lowering — source -> request
// edges carrying rho_l*C_unit, request -> station edges priced per compute
// unit with the instantiation delay amortised, station -> sink edges bounded
// by capacity — with the SSP referee, and prices the resulting
// fractional solution with the LP objective (3) (y = max x).
func coldSSPObjective(p *caching.Problem) (float64, error) {
	L, N := len(p.Requests), p.NumStations
	g := flowref.NewGraph(2 + L + N)
	sink := 1 + L + N
	ids := make([]int, L*N)
	total := 0.0
	for l, r := range p.Requests {
		supply := r.Volume * p.CUnit
		total += supply
		if _, err := g.AddEdge(0, 1+l, supply, 0); err != nil {
			return 0, err
		}
		for i := 0; i < N; i++ {
			perUnit := (p.AssignCost(l, i) + p.InstDelayMS[i][r.Service]) / supply
			id, err := g.AddEdge(1+l, 1+L+i, supply, perUnit)
			if err != nil {
				return 0, err
			}
			ids[l*N+i] = id
		}
	}
	for i := 0; i < N; i++ {
		if _, err := g.AddEdge(1+L+i, sink, p.CapacityMHz[i], 0); err != nil {
			return 0, err
		}
	}
	if _, err := g.MinCostFlow(0, sink, total); err != nil {
		return 0, err
	}
	y := make([][]float64, p.NumServices)
	for k := range y {
		y[k] = make([]float64, N)
	}
	obj := 0.0
	for l, r := range p.Requests {
		supply := r.Volume * p.CUnit
		for i := 0; i < N; i++ {
			x := g.Flow(ids[l*N+i]) / supply
			if x < 1e-12 {
				continue
			}
			obj += x * p.AssignCost(l, i)
			y[r.Service][i] = math.Max(y[r.Service][i], x)
		}
	}
	for k := range y {
		for i, v := range y[k] {
			obj += v * p.InstDelayMS[i][k]
		}
	}
	return obj / float64(L), nil
}

// TestChaosBlackoutDegradesEveryPolicy pins the headline acceptance case: a
// slot with every station down (capacity all zero) is served through the
// degradation ladder — greedy shedding, a degraded-slot mark, no error —
// for each of the five policies.
func TestChaosBlackoutDegradesEveryPolicy(t *testing.T) {
	s := chaosScenario(t, "blackout:4:2")
	for _, name := range chaosMatrixPolicies {
		p, err := s.NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(p)
		if err != nil {
			t.Fatalf("%s aborted on the blackout: %v", name, err)
		}
		if res.DegradedSlots == 0 {
			t.Errorf("%s: blackout slot not reported as degraded", name)
		}
		if res.FailedStationSlots < 2*s.Net.NumStations() {
			t.Errorf("%s: FailedStationSlots = %d, want >= %d",
				name, res.FailedStationSlots, 2*s.Net.NumStations())
		}
		for tt, d := range res.PerSlotDelayMS {
			if math.IsNaN(d) || math.IsInf(d, 0) {
				t.Fatalf("%s: slot %d delay %v not finite", name, tt, d)
			}
		}
	}
}

// TestChaosIsDeterministic replays one chaotic scenario twice: same seed,
// same chaos seed, same spec — the fault realisation and every result field
// derived from it must be bit-identical, so paired policy comparisons under
// chaos stay apples-to-apples.
func TestChaosIsDeterministic(t *testing.T) {
	run := func() *Result {
		s := chaosScenario(t, "regional:0.3:2,feedback:0.2:0.1")
		p, err := s.NewPolicy("OL_GD")
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.FaultsInjected == 0 {
		t.Fatal("chaos spec injected nothing; the determinism check is vacuous")
	}
	if a.FaultsInjected != b.FaultsInjected || a.FailedStationSlots != b.FailedStationSlots ||
		a.DegradedSlots != b.DegradedSlots || a.FallbackSolves != b.FallbackSolves {
		t.Fatalf("fault accounting diverged: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			a.FaultsInjected, a.FailedStationSlots, a.DegradedSlots, a.FallbackSolves,
			b.FaultsInjected, b.FailedStationSlots, b.DegradedSlots, b.FallbackSolves)
	}
	for tt := range a.PerSlotDelayMS {
		if a.PerSlotDelayMS[tt] != b.PerSlotDelayMS[tt] {
			t.Fatalf("slot %d: %x != %x", tt, a.PerSlotDelayMS[tt], b.PerSlotDelayMS[tt])
		}
	}
}

// TestNoChaosIsBitIdenticalToSeed guards the zero-cost property: a scenario
// with an empty chaos spec must produce exactly the results of a scenario
// that never heard of the fault subsystem (same seed, no chaos options).
func TestNoChaosIsBitIdenticalToSeed(t *testing.T) {
	run := func(opts ...ScenarioOption) *Result {
		base := []ScenarioOption{WithStations(20), WithSeed(6), WithSlots(10)}
		s, err := NewScenario(append(base, opts...)...)
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
		return res
	}
	plain := run()
	gated := run(WithChaos(""), WithChaosSeed(77), WithSolveBudget(0))
	if len(plain.PerSlotDelayMS) != len(gated.PerSlotDelayMS) {
		t.Fatal("slot counts differ")
	}
	for tt := range plain.PerSlotDelayMS {
		if plain.PerSlotDelayMS[tt] != gated.PerSlotDelayMS[tt] {
			t.Fatalf("slot %d: %x (plain) != %x (empty chaos)",
				tt, plain.PerSlotDelayMS[tt], gated.PerSlotDelayMS[tt])
		}
	}
	if gated.DegradedSlots != 0 || gated.FaultsInjected != 0 {
		t.Errorf("empty chaos spec reported degradation: %+v", gated)
	}
}

// TestSolveBudgetDegradesGracefully starves the per-slot solver and checks
// the ladder absorbs it: the horizon completes, fallbacks are recorded, and
// delays stay finite.
func TestSolveBudgetDegradesGracefully(t *testing.T) {
	// Small enough (12 requests x 10 stations = 120 vars) that slot solves
	// take the exact simplex path, which is what the iteration budget caps.
	wcfg := WorkloadConfig{
		NumRequests:    12,
		NumServices:    4,
		Horizon:        10,
		NumClusters:    3,
		BasicDemandMin: 2,
		BasicDemandMax: 5,
		BurstScale:     6,
		BurstOnProb:    0.1,
		BurstStayProb:  0.7,
		CUnit:          40,
	}
	s, err := NewScenario(
		WithStations(10),
		WithSeed(3),
		WithWorkloadConfig(wcfg),
		WithSolveBudget(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.NewPolicy("OL_GD")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(p)
	if err != nil {
		t.Fatalf("starved solver aborted the run: %v", err)
	}
	if res.FallbackSolves == 0 {
		t.Error("SolveBudget=1 produced no fallback solves")
	}
	if res.DegradedSlots == 0 {
		t.Error("SolveBudget=1 marked no slots degraded")
	}
	for tt, d := range res.PerSlotDelayMS {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			t.Fatalf("slot %d delay %v not finite", tt, d)
		}
	}
}
