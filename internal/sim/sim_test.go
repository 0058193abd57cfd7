package sim

import (
	"errors"
	"math"
	"testing"

	"github.com/mecsim/l4e/internal/algorithms"
	"github.com/mecsim/l4e/internal/caching"
	"github.com/mecsim/l4e/internal/mec"
	"github.com/mecsim/l4e/internal/topology"
	"github.com/mecsim/l4e/internal/workload"
)

func testEnv(t *testing.T, nStations, nRequests, horizon int) (*mec.Network, *workload.Workload) {
	t.Helper()
	net, err := topology.GTITM(nStations, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig()
	cfg.NumRequests = nRequests
	cfg.Horizon = horizon
	w, err := workload.Generate(net, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	return net, w
}

func TestRunnerValidation(t *testing.T) {
	net, w := testEnv(t, 20, 10, 20)
	if _, err := NewRunner(mec.NewNetwork("e"), w, Config{}); err == nil {
		t.Error("empty network accepted")
	}
	if _, err := NewRunner(net, w, Config{Slots: 999}); err == nil {
		t.Error("slots > horizon accepted")
	}
	if _, err := NewRunner(net, w, Config{Slots: -1}); err == nil {
		t.Error("negative slots accepted")
	}
}

func TestRunProducesPerSlotSeries(t *testing.T) {
	net, w := testEnv(t, 20, 10, 25)
	r, err := NewRunner(net, w, Config{Seed: 1, DemandsGiven: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := algorithms.NewGreedyGD(histFor(net), false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerSlotDelayMS) != 25 || len(res.PerSlotRuntimeMS) != 25 {
		t.Fatalf("series lengths = %d/%d, want 25", len(res.PerSlotDelayMS), len(res.PerSlotRuntimeMS))
	}
	if res.AvgDelayMS <= 0 || math.IsNaN(res.AvgDelayMS) {
		t.Errorf("avg delay = %v", res.AvgDelayMS)
	}
	if res.Policy != "Greedy_GD" {
		t.Errorf("policy name = %q", res.Policy)
	}
	mean := 0.0
	for _, d := range res.PerSlotDelayMS {
		mean += d
	}
	mean /= 25
	if math.Abs(mean-res.AvgDelayMS) > 1e-9 {
		t.Errorf("AvgDelayMS %v != series mean %v", res.AvgDelayMS, mean)
	}
}

func TestRunDeterministicEnvironment(t *testing.T) {
	// Two identical policies with the same seeds see identical slot data.
	net, w := testEnv(t, 20, 10, 15)
	mk := func() *Result {
		r, err := NewRunner(net, w, Config{Seed: 5, DemandsGiven: true})
		if err != nil {
			t.Fatal(err)
		}
		g, err := algorithms.NewGreedyGD(histFor(net), false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	for i := range a.PerSlotDelayMS {
		if a.PerSlotDelayMS[i] != b.PerSlotDelayMS[i] {
			t.Fatalf("slot %d delay differs: %v vs %v", i, a.PerSlotDelayMS[i], b.PerSlotDelayMS[i])
		}
	}
}

func TestRegretTracking(t *testing.T) {
	net, w := testEnv(t, 15, 8, 20)
	r, err := NewRunner(net, w, Config{Seed: 2, DemandsGiven: true, TrackRegret: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := algorithms.DefaultOLGDConfig(net.NumStations())
	o, err := algorithms.NewOLGD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regret == nil {
		t.Fatal("regret not tracked")
	}
	if res.Regret.Slots() != 20 {
		t.Errorf("regret slots = %d, want 20", res.Regret.Slots())
	}
	if res.Regret.Cumulative() < 0 {
		t.Errorf("cumulative regret = %v", res.Regret.Cumulative())
	}
}

func TestOLGDBeatsGreedyOnUncertainDelays(t *testing.T) {
	// Headline Fig. 3 shape at reduced scale: once OL_GD's delay estimates
	// converge, it beats static-information greedy. The comparison uses the
	// converged tail of the horizon — the paper's own Fig. 4(a) notes OL_GD
	// is NOT best while still exploring (small networks / early slots).
	net, w := testEnv(t, 30, 15, 60)
	run := func(p algorithms.Policy) float64 {
		r, err := NewRunner(net, w, Config{Seed: 9, DemandsGiven: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		tail := res.PerSlotDelayMS[30:]
		total := 0.0
		for _, d := range tail {
			total += d
		}
		return total / float64(len(tail))
	}
	cfg := algorithms.DefaultOLGDConfig(net.NumStations())
	cfg.Seed = 9
	ol, err := algorithms.NewOLGD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := algorithms.NewGreedyGD(histFor(net), false)
	if err != nil {
		t.Fatal(err)
	}
	olDelay := run(ol)
	grDelay := run(greedy)
	t.Logf("OL_GD %.2f ms vs Greedy_GD %.2f ms", olDelay, grDelay)
	if olDelay >= grDelay {
		t.Errorf("OL_GD (%v) did not beat Greedy_GD (%v)", olDelay, grDelay)
	}
}

func TestAccessLatencyWiring(t *testing.T) {
	net, w := testEnv(t, 20, 10, 5)
	run := func(useLat bool) *probePolicy {
		r, err := NewRunner(net, w, Config{Seed: 3, DemandsGiven: true, UseAccessLatency: useLat})
		if err != nil {
			t.Fatal(err)
		}
		probe := &probePolicy{}
		if _, err := r.Run(probe); err != nil {
			t.Fatal(err)
		}
		return probe
	}
	with := run(true)
	without := run(false)
	if with.accessLat == nil {
		t.Error("access-latency matrix missing when enabled")
	}
	if without.accessLat != nil {
		t.Error("access-latency matrix present when disabled")
	}
	// The matrix must be zero at the registered station and non-negative
	// elsewhere, with at least one strictly positive entry.
	positive := false
	for l, row := range with.accessLat {
		reg := w.Requests[l].RegisteredBS
		if row[reg] != 0 {
			t.Errorf("request %d has latency %v to its registered station", l, row[reg])
		}
		for _, v := range row {
			if v < 0 {
				t.Fatalf("negative access latency %v", v)
			}
			if v > 0 {
				positive = true
			}
		}
	}
	if !positive {
		t.Error("access-latency matrix is all zeros")
	}
}

func TestCompareRunsAllPolicies(t *testing.T) {
	net, w := testEnv(t, 15, 8, 10)
	r, err := NewRunner(net, w, Config{Seed: 4, DemandsGiven: true})
	if err != nil {
		t.Fatal(err)
	}
	g1, err := algorithms.NewGreedyGD(histFor(net), false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := algorithms.DefaultOLGDConfig(net.NumStations())
	g2, err := algorithms.NewOLGD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := r.Compare([]algorithms.Policy{g1, g2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Policy != "Greedy_GD" || results[1].Policy != "OL_GD" {
		t.Errorf("unexpected results: %+v", results)
	}
}

func TestHiddenDemandsUseBasicOnly(t *testing.T) {
	// With DemandsGiven=false, the view's volumes must equal basic demands.
	net, w := testEnv(t, 15, 8, 5)
	r, err := NewRunner(net, w, Config{Seed: 6, DemandsGiven: false})
	if err != nil {
		t.Fatal(err)
	}
	probe := &probePolicy{}
	if _, err := r.Run(probe); err != nil {
		t.Fatal(err)
	}
	for l, v := range probe.seenVolumes {
		if v != w.Requests[l].BasicDemand {
			t.Errorf("request %d saw volume %v, want basic %v", l, v, w.Requests[l].BasicDemand)
		}
	}
	if len(probe.seenTrue) != len(w.Requests) {
		t.Fatal("observation missing true volumes")
	}
	// Observed true volumes include bursty components at least somewhere.
	if probe.features == nil {
		t.Error("slot features missing")
	}
}

// probePolicy records what the simulator exposes.
type probePolicy struct {
	seenVolumes []float64
	seenTrue    []float64
	features    [][]float64
	accessLat   [][]float64
}

func (p *probePolicy) Name() string { return "probe" }

func (p *probePolicy) Decide(view *algorithms.SlotView) (*caching.Assignment, error) {
	p.seenVolumes = make([]float64, len(view.Problem.Requests))
	for l, r := range view.Problem.Requests {
		p.seenVolumes[l] = r.Volume
	}
	p.features = view.Features
	p.accessLat = view.Problem.AccessLatencyMS
	a := &caching.Assignment{BS: make([]int, len(view.Problem.Requests))}
	return a, nil
}

func (p *probePolicy) Observe(obs *algorithms.Observation) {
	p.seenTrue = obs.TrueVolumes
}

// histFor builds per-station class-midpoint historical estimates.
func histFor(net *mec.Network) []float64 {
	out := make([]float64, net.NumStations())
	for i := range net.Stations {
		p := mec.DefaultParams(net.Stations[i].Class)
		out[i] = (p.UnitDelayMin + p.UnitDelayMax) / 2
	}
	return out
}

// TestRejectedDecideLeavesCellUnchanged decides once, then sends decides and
// observes whose volumes are malformed or beyond maxVolume. Each must fail
// with ErrBadVolumes and leave Status() exactly as it was: a decide used to
// apply the pending slot's default observe before it checked its volumes, and
// a decide of volumes 1e308 made the cell's running delay +Inf. Volumes at the
// ceiling are served and keep that delay finite.
func TestRejectedDecideLeavesCellUnchanged(t *testing.T) {
	net, w := testEnv(t, 12, 20, 10)
	r, err := NewRunner(net, w, Config{Seed: 7, DemandsGiven: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := algorithms.NewOLGD(algorithms.DefaultOLGDConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.NewCell(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decide(nil); err != nil {
		t.Fatal(err)
	}
	before := c.Status()
	fill := func(v float64) []float64 {
		vols := make([]float64, len(w.Requests))
		for l := range vols {
			vols[l] = v
		}
		return vols
	}
	for _, vols := range [][]float64{{1, 2}, fill(1e308), fill(math.Nextafter(maxVolume, math.Inf(1))), fill(0), fill(math.NaN())} {
		if _, err := c.Decide(vols); !errors.Is(err, ErrBadVolumes) {
			t.Fatalf("decide %v: err = %v, want ErrBadVolumes", vols[:2], err)
		}
		if err := c.Observe(nil, vols); !errors.Is(err, ErrBadVolumes) {
			t.Fatalf("observe %v: err = %v, want ErrBadVolumes", vols[:2], err)
		}
		if after := c.Status(); after != before {
			t.Fatalf("rejected volumes %v changed the cell: %+v, was %+v", vols[:2], after, before)
		}
	}
	if _, err := c.Decide(fill(maxVolume)); err != nil {
		t.Fatalf("decide at the ceiling: %v", err)
	}
	if st := c.Status(); st.Decides != 2 || st.Observes != 1 || math.IsInf(st.AvgDelayMS, 0) || math.IsNaN(st.AvgDelayMS) {
		t.Fatalf("after a decide at the ceiling: %+v, want 2 decides, 1 observe and a finite delay", st)
	}
}

// TestObserveBoundsClientDelays pins the ceiling on client-supplied delays.
// Accepted, one observe of 1e308 ms knocked the next decides of OL_GD and
// OL_GD/UCB onto the greedy rung; delays above the ceiling are rejected
// without touching the cell, and delays at it keep the flow rung.
func TestObserveBoundsClientDelays(t *testing.T) {
	net, w := testEnv(t, 12, 20, 10)
	policies := map[string]func() (algorithms.Policy, error){
		"OL_GD": func() (algorithms.Policy, error) {
			return algorithms.NewOLGD(algorithms.DefaultOLGDConfig(12))
		},
		"OL_GD/UCB": func() (algorithms.Policy, error) {
			return algorithms.NewIndexOLGD(algorithms.IndexUCB, 12, 0, 7)
		},
	}
	for name, mk := range policies {
		t.Run(name, func(t *testing.T) {
			r, err := NewRunner(net, w, Config{Seed: 7, DemandsGiven: true})
			if err != nil {
				t.Fatal(err)
			}
			p, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			c, err := r.NewCell(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Decide(nil); err != nil {
				t.Fatal(err)
			}
			for _, d := range []float64{1e308, math.Nextafter(maxPlayedDelayMS, math.Inf(1))} {
				if err := c.Observe(map[int]float64{0: d, 1: d}, nil); !errors.Is(err, ErrBadDelay) {
					t.Fatalf("observe %v: err = %v, want ErrBadDelay", d, err)
				}
			}
			if err := c.Observe(map[int]float64{0: maxPlayedDelayMS, 1: maxPlayedDelayMS}, nil); err != nil {
				t.Fatalf("observe at the ceiling: %v", err)
			}
			for k := 0; k < 3; k++ {
				d, err := c.Decide(nil)
				if err != nil {
					t.Fatal(err)
				}
				if d.Solver != string(caching.SolverFlow) || d.Degraded {
					t.Fatalf("decide %d after the ceiling observe: solver=%q degraded=%v, want flow and not degraded",
						k, d.Solver, d.Degraded)
				}
				if err := c.Observe(nil, nil); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
