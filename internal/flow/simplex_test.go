package flow

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// --- helpers -------------------------------------------------------------

// checkFlowInvariants asserts capacity bounds on every edge and flow
// conservation at every node other than s and t for the flow currently
// carried by g.
func checkFlowInvariants(t *testing.T, g *Graph, s, snk int, label string) {
	t.Helper()
	net := make([]float64, g.n)
	for id := 0; id < len(g.edges); id += 2 {
		e := g.edges[id]
		if e.flow < -1e-6 || e.flow > e.cap+1e-6 {
			t.Fatalf("%s: edge %d flow %v outside [0,%v]", label, id, e.flow, e.cap)
		}
		from := g.edges[id^1].to
		net[from] += e.flow
		net[e.to] -= e.flow
	}
	for v := 0; v < g.n; v++ {
		if v == s || v == snk {
			continue
		}
		if math.Abs(net[v]) > 1e-6 {
			t.Fatalf("%s: conservation violated at node %d (net %v)", label, v, net[v])
		}
	}
}

// randGeneral builds a random general directed graph (possibly disconnected,
// parallel arcs, zero capacities) with non-negative costs, deterministically
// from seed, so SSP and simplex can each solve a fresh copy.
func randGeneral(seed int64) (*Graph, int, int) {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(7)
	g := NewGraph(n)
	m := 1 + rng.Intn(3*n)
	for e := 0; e < m; e++ {
		from, to := rng.Intn(n), rng.Intn(n)
		if from == to {
			continue
		}
		capacity := float64(rng.Intn(11)) // zero capacities included
		cost := math.Floor(rng.Float64()*400) / 16
		g.AddEdge(from, to, capacity, cost)
	}
	return g, 0, n - 1
}

// randTransportSpec draws a caching-shaped transportation instance.
func randTransportSpec(seed int64) (supply, caps []float64, costs [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	l := 2 + rng.Intn(6)
	n := 2 + rng.Intn(5)
	supply = make([]float64, l)
	var total float64
	for i := range supply {
		supply[i] = 1 + 9*rng.Float64()
		total += supply[i]
	}
	caps = make([]float64, n)
	for j := range caps {
		caps[j] = total/float64(n) + 2 + 8*rng.Float64()
	}
	costs = make([][]float64, l)
	for i := range costs {
		costs[i] = make([]float64, n)
		for j := range costs[i] {
			costs[i][j] = rng.Float64() * 20
		}
	}
	return supply, caps, costs
}

// --- unit tests ----------------------------------------------------------

func TestSimplexSingleEdge(t *testing.T) {
	g := NewGraph(2)
	id := mustEdge(t, g, 0, 1, 5, 3)
	res, err := g.MinCostFlow(0, 1, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 4 || math.Abs(res.Cost-12) > 1e-9 {
		t.Fatalf("flow %v cost %v, want 4 / 12", res.Flow, res.Cost)
	}
	if g.Flow(id) != 4 {
		t.Fatalf("edge flow %v not written back", g.Flow(id))
	}
	if !res.BasisRebuilt || res.WarmStarted {
		t.Fatalf("cold solve flags: rebuilt=%v warm=%v", res.BasisRebuilt, res.WarmStarted)
	}
}

func TestSimplexChoosesCheaperPath(t *testing.T) {
	g := NewGraph(4)
	mustEdge(t, g, 0, 1, 10, 1)
	mustEdge(t, g, 1, 3, 10, 1)
	mustEdge(t, g, 0, 2, 10, 5)
	mustEdge(t, g, 2, 3, 10, 5)
	res, err := g.MinCostFlow(0, 3, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-12) > 1e-9 {
		t.Fatalf("cost %v, want 12 (cheap path only)", res.Cost)
	}
}

func TestSimplexDisconnected(t *testing.T) {
	g := NewGraph(4)
	mustEdge(t, g, 0, 1, 5, 1)
	// Node 2..3 unreachable from 0.
	mustEdge(t, g, 2, 3, 5, 1)
	res, err := g.MinCostFlow(0, 3, 3, nil)
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("err = %v, want ErrDisconnected", err)
	}
	if res.Flow > 1e-9 {
		t.Fatalf("delivered %v across a cut", res.Flow)
	}
}

func TestSimplexPartialRoutability(t *testing.T) {
	// Only 3 of the requested 7 units fit through the bottleneck: the solver
	// must deliver the routable part at min cost and report ErrDisconnected,
	// matching the SSP contract.
	g := NewGraph(3)
	mustEdge(t, g, 0, 1, 3, 2)
	mustEdge(t, g, 1, 2, 10, 1)
	res, err := g.MinCostFlow(0, 2, 7, nil)
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("err = %v, want ErrDisconnected", err)
	}
	if math.Abs(res.Flow-3) > 1e-6 || math.Abs(res.Cost-9) > 1e-6 {
		t.Fatalf("partial flow %v cost %v, want 3 / 9", res.Flow, res.Cost)
	}
}

func TestSimplexZeroWant(t *testing.T) {
	g := NewGraph(2)
	mustEdge(t, g, 0, 1, 5, 3)
	res, err := g.MinCostFlow(0, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 0 || res.Cost != 0 {
		t.Fatalf("zero-want solve returned flow %v cost %v", res.Flow, res.Cost)
	}
}

func TestSimplexInvalidInputs(t *testing.T) {
	g := NewGraph(3)
	mustEdge(t, g, 0, 1, 5, 1)
	if _, err := g.MinCostFlow(0, 0, 1, nil); err == nil {
		t.Error("accepted source == sink")
	}
	if _, err := g.MinCostFlow(-1, 1, 1, nil); err == nil {
		t.Error("accepted out-of-range source")
	}
	if _, err := g.MinCostFlow(0, 1, math.Inf(1), nil); err == nil {
		t.Error("accepted infinite want (max-flow is SSP's job)")
	}
	if _, err := g.MinCostFlow(0, 1, -2, nil); err == nil {
		t.Error("accepted negative want")
	}
	if _, err := g.MinCostFlow(0, 1, math.NaN(), nil); err == nil {
		t.Error("accepted NaN want")
	}
}

func TestSimplexNegativeCosts(t *testing.T) {
	// Negative arc costs without a negative cycle: both solvers agree.
	g := NewGraph(4)
	mustEdge(t, g, 0, 1, 5, -2)
	mustEdge(t, g, 1, 3, 5, 3)
	mustEdge(t, g, 0, 2, 5, 4)
	mustEdge(t, g, 2, 3, 5, -1)
	ref := NewGraph(4)
	mustEdge(t, ref, 0, 1, 5, -2)
	mustEdge(t, ref, 1, 3, 5, 3)
	mustEdge(t, ref, 0, 2, 5, 4)
	mustEdge(t, ref, 2, 3, 5, -1)
	want, err := sspSolve(ref, 0, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.MinCostFlow(0, 3, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Cost-want.Cost) > 1e-9*(1+math.Abs(want.Cost)) {
		t.Fatalf("simplex cost %v, SSP cost %v", got.Cost, want.Cost)
	}
}

// --- satellite: 500-instance differential suite --------------------------

// TestSimplexDifferential500 solves 500 random feasible instances — a mix of
// caching-shaped transportation networks and general random graphs (parallel
// arcs, zero capacities, bottlenecks) — with both SSP and network simplex.
// The optimal costs must agree to 1e-9 (relative) and the simplex flow must
// satisfy conservation and capacity bounds.
func TestSimplexDifferential500(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		if seed%2 == 0 {
			// General graph: want is the max flow (computed by SSP on a fresh
			// copy), scaled down on every third instance to exercise interior
			// flow values.
			probe, s, snk := randGeneral(seed)
			mf, _ := sspSolve(probe, s, snk, math.Inf(1))
			want := mf.Flow
			if seed%3 == 0 {
				want *= 0.6
			}
			gSSP, _, _ := randGeneral(seed)
			gSpx, _, _ := randGeneral(seed)
			ref, err := sspSolve(gSSP, s, snk, want)
			if err != nil {
				t.Fatalf("seed %d: SSP on feasible want %v: %v", seed, want, err)
			}
			got, err := gSpx.MinCostFlow(s, snk, want, nil)
			if err != nil {
				t.Fatalf("seed %d: simplex on feasible want %v: %v", seed, want, err)
			}
			if math.Abs(got.Cost-ref.Cost) > 1e-9*(1+math.Abs(ref.Cost)) {
				t.Fatalf("seed %d: simplex cost %v, SSP cost %v (want %v)",
					seed, got.Cost, ref.Cost, want)
			}
			if math.Abs(got.Flow-want) > 1e-6 {
				t.Fatalf("seed %d: simplex delivered %v of %v", seed, got.Flow, want)
			}
			checkFlowInvariants(t, gSpx, s, snk, "simplex")
			checkFlowInvariants(t, gSSP, s, snk, "ssp")
		} else {
			supply, caps, costs := randTransportSpec(seed)
			tgSSP := buildTransport(t, supply, caps, costs)
			tgSpx := buildTransport(t, supply, caps, costs)
			ref, err := sspSolve(tgSSP.g, tgSSP.source, tgSSP.sinkID, tgSSP.total())
			if err != nil {
				t.Fatalf("seed %d: SSP transport: %v", seed, err)
			}
			got, err := tgSpx.g.MinCostFlow(tgSpx.source, tgSpx.sinkID, tgSpx.total(), nil)
			if err != nil {
				t.Fatalf("seed %d: simplex transport: %v", seed, err)
			}
			if math.Abs(got.Cost-ref.Cost) > 1e-9*(1+math.Abs(ref.Cost)) {
				t.Fatalf("seed %d: simplex cost %v, SSP cost %v", seed, got.Cost, ref.Cost)
			}
			checkFlowInvariants(t, tgSpx.g, tgSpx.source, tgSpx.sinkID, "simplex")
		}
	}
}

// TestSimplexDifferentialInfeasible confirms the two solvers agree on
// infeasible instances too: both must return ErrDisconnected (never loop or
// panic) and the simplex partial flow must stay within capacity bounds.
func TestSimplexDifferentialInfeasible(t *testing.T) {
	for seed := int64(5000); seed < 5100; seed++ {
		probe, s, snk := randGeneral(seed)
		mf, _ := sspSolve(probe, s, snk, math.Inf(1))
		want := mf.Flow + 3 // strictly above the max flow
		gSpx, _, _ := randGeneral(seed)
		res, err := gSpx.MinCostFlow(s, snk, want, nil)
		if !errors.Is(err, ErrDisconnected) {
			t.Fatalf("seed %d: err = %v on want %v > maxflow %v", seed, err, want, mf.Flow)
		}
		if res.Flow > mf.Flow+1e-6 {
			t.Fatalf("seed %d: simplex claims %v delivered, max flow is %v", seed, res.Flow, mf.Flow)
		}
		for id := 0; id < len(gSpx.edges); id += 2 {
			e := gSpx.edges[id]
			if e.flow < -1e-6 || e.flow > e.cap+1e-6 {
				t.Fatalf("seed %d: partial flow %v outside [0,%v]", seed, e.flow, e.cap)
			}
		}
	}
}

// --- satellite: degeneracy / anti-cycling regressions --------------------

// TestSimplexDegenerateZeroCapacity pits the solver against a network laced
// with zero-capacity arcs whose reduced costs look attractive: every such
// entering arc forces a zero-flow (degenerate) pivot. The solve must
// terminate well inside the pivot budget and still land on the exact optimum.
func TestSimplexDegenerateZeroCapacity(t *testing.T) {
	g := NewGraph(6)
	mustEdge(t, g, 0, 1, 4, 1)
	mustEdge(t, g, 1, 5, 4, 1)
	// Tempting but useless zero-capacity shortcuts, cheaper than the real path.
	for i := 1; i <= 4; i++ {
		mustEdge(t, g, 0, i, 0, 0)
		mustEdge(t, g, i, 5, 0, 0)
	}
	mustEdge(t, g, 2, 3, 0, 0)
	mustEdge(t, g, 3, 2, 0, 0)
	res, err := g.MinCostFlow(0, 5, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-8) > 1e-9 {
		t.Fatalf("cost %v, want 8", res.Cost)
	}
	if budget := 32*(len(g.edges)/2+g.n+1) + 1024; res.Pivots >= budget {
		t.Fatalf("pivots %d at the budget %d", res.Pivots, budget)
	}
}

// TestSimplexDegenerateParallelArcs uses many equal-cost parallel arcs — the
// classic source of massive dual degeneracy (every alternative basis prices
// identically) — and asserts exact optimality under a small pivot budget.
func TestSimplexDegenerateParallelArcs(t *testing.T) {
	g := NewGraph(4)
	// 8 parallel arcs per hop, identical costs; plus zero-capacity twins.
	for i := 0; i < 8; i++ {
		mustEdge(t, g, 0, 1, 1, 2)
		mustEdge(t, g, 1, 2, 1, 3)
		mustEdge(t, g, 2, 3, 1, 2)
		mustEdge(t, g, 0, 1, 0, 2)
		mustEdge(t, g, 1, 2, 0, 3)
		mustEdge(t, g, 2, 3, 0, 2)
	}
	res, err := g.MinCostFlow(0, 3, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-56) > 1e-9 {
		t.Fatalf("cost %v, want 56 (= 8 units x 7)", res.Cost)
	}
	if res.Pivots > 1000 {
		t.Fatalf("pivots %d: degenerate parallel arcs should not thrash", res.Pivots)
	}
}

// TestSimplexDegenerateRandomised hammers the degenerate regime at random:
// graphs where most arcs have zero capacity and the rest share one of two
// cost values, so nearly every pivot is degenerate. Termination under budget
// plus cost agreement with SSP pins both the strongly-feasible leaving rule
// and the Bland fallback (a Dantzig-only rule livelocks on instances of this
// shape).
func TestSimplexDegenerateRandomised(t *testing.T) {
	for seed := int64(9000); seed < 9100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5)
		build := func() *Graph {
			r := rand.New(rand.NewSource(seed))
			_ = r.Intn(5) // keep the stream aligned with the outer draw
			g := NewGraph(n)
			for e := 0; e < 4*n; e++ {
				from, to := r.Intn(n), r.Intn(n)
				if from == to {
					continue
				}
				capacity := 0.0
				if r.Intn(3) == 0 {
					capacity = float64(1 + r.Intn(3))
				}
				cost := float64(r.Intn(2)) // only two cost levels: heavy ties
				g.AddEdge(from, to, capacity, cost)
			}
			return g
		}
		probe := build()
		mf, _ := sspSolve(probe, 0, n-1, math.Inf(1))
		if mf.Flow <= 0 {
			continue
		}
		ref, err := sspSolve(build(), 0, n-1, mf.Flow)
		if err != nil {
			t.Fatalf("seed %d: SSP: %v", seed, err)
		}
		got, err := build().MinCostFlow(0, n-1, mf.Flow, nil)
		if err != nil {
			t.Fatalf("seed %d: simplex: %v", seed, err)
		}
		if math.Abs(got.Cost-ref.Cost) > 1e-9*(1+math.Abs(ref.Cost)) {
			t.Fatalf("seed %d: simplex cost %v, SSP cost %v", seed, got.Cost, ref.Cost)
		}
	}
}

// --- warm-basis behaviour ------------------------------------------------

// TestSimplexWarmMatchesColdUnderDrift drifts a transportation instance for
// several slots — every cost jitters, and about a third of the supplies are
// re-drawn each slot — re-solving each warm from the carried basis; every
// warm cost must match the cold SSP reference solve.
func TestSimplexWarmMatchesColdUnderDrift(t *testing.T) {
	warmUsed := 0
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		supply, caps, costs := randTransportSpec(seed + 7000)
		// Supplies re-draw from (1,10) during the drift below; give every
		// station enough slack that no drift can make the instance infeasible.
		for j := range caps {
			caps[j] += 10 * float64(len(supply))
		}
		tg := buildTransport(t, supply, caps, costs)
		ws := NewWorkspace()
		if _, err := tg.g.MinCostFlow(tg.source, tg.sinkID, tg.total(), ws); err != nil {
			t.Fatalf("seed %d: cold simplex: %v", seed, err)
		}
		for step := 0; step < 6; step++ {
			for i := 0; i < tg.l; i++ {
				if rng.Float64() < 0.3 {
					tg.supply[i] = 1 + 9*rng.Float64()
				}
				for j := 0; j < tg.n; j++ {
					tg.costs[i][j] = math.Max(0, tg.costs[i][j]+rng.NormFloat64())
				}
			}
			tg.rewrite(t)
			res, err := tg.g.MinCostFlow(tg.source, tg.sinkID, tg.total(), ws)
			if err != nil {
				t.Fatalf("seed %d step %d: warm simplex: %v", seed, step, err)
			}
			if res.WarmStarted {
				warmUsed++
			}
			ref := buildTransport(t, tg.supply, tg.caps, tg.costs)
			want, err := sspSolve(ref.g, ref.source, ref.sinkID, ref.total())
			if err != nil {
				t.Fatalf("seed %d step %d: cold reference: %v", seed, step, err)
			}
			if math.Abs(res.Cost-want.Cost) > 1e-6*(1+math.Abs(want.Cost)) {
				t.Fatalf("seed %d step %d: warm cost %v, cold cost %v", seed, step, res.Cost, want.Cost)
			}
			checkFlowInvariants(t, tg.g, tg.source, tg.sinkID, "warm simplex")
		}
	}
	if warmUsed == 0 {
		t.Fatal("no drift step ever reused the carried basis; warm path dead")
	}
}

// TestSimplexWarmFewerPivotsThanCold is the payoff claim: on a small drift,
// resuming from the carried basis must take far fewer pivots than the cold
// solve took.
func TestSimplexWarmFewerPivotsThanCold(t *testing.T) {
	supply, caps, costs := randTransportSpec(42)
	tg := buildTransport(t, supply, caps, costs)
	ws := NewWorkspace()
	cold, err := tg.g.MinCostFlow(tg.source, tg.sinkID, tg.total(), ws)
	if err != nil {
		t.Fatal(err)
	}
	// Nudge one cost: the carried basis should re-optimise almost instantly.
	tg.costs[0][0] += 0.25
	tg.rewrite(t)
	warm, err := tg.g.MinCostFlow(tg.source, tg.sinkID, tg.total(), ws)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted || warm.BasisRebuilt {
		t.Fatalf("warm solve flags: warm=%v rebuilt=%v", warm.WarmStarted, warm.BasisRebuilt)
	}
	if warm.Pivots*4 > cold.Pivots && warm.Pivots > 4 {
		t.Fatalf("warm solve took %d pivots vs %d cold — basis reuse buys nothing",
			warm.Pivots, cold.Pivots)
	}
}

// TestSimplexResetBasisForcesCold pins the checkpoint-barrier contract:
// after ResetBasis, a solve on the same workspace must rebuild from scratch
// and produce the bit-identical result a fresh-workspace solve produces.
func TestSimplexResetBasisForcesCold(t *testing.T) {
	supply, caps, costs := randTransportSpec(77)
	tg := buildTransport(t, supply, caps, costs)
	ws := NewWorkspace()
	if _, err := tg.g.MinCostFlow(tg.source, tg.sinkID, tg.total(), ws); err != nil {
		t.Fatal(err)
	}
	ws.ResetBasis()
	warm, err := tg.g.MinCostFlow(tg.source, tg.sinkID, tg.total(), ws)
	if err != nil {
		t.Fatal(err)
	}
	if warm.WarmStarted || !warm.BasisRebuilt {
		t.Fatalf("post-reset solve flags: warm=%v rebuilt=%v, want cold", warm.WarmStarted, warm.BasisRebuilt)
	}
	ref := buildTransport(t, supply, caps, costs)
	cold, err := ref.g.MinCostFlow(ref.source, ref.sinkID, ref.total(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(warm.Cost) != math.Float64bits(cold.Cost) ||
		warm.Pivots != cold.Pivots {
		t.Fatalf("post-reset solve (cost %v, %d pivots) differs from cold (cost %v, %d pivots)",
			warm.Cost, warm.Pivots, cold.Cost, cold.Pivots)
	}
	for i := 0; i < tg.l; i++ {
		for j := 0; j < tg.n; j++ {
			a, b := tg.g.Flow(tg.asg[i][j]), ref.g.Flow(ref.asg[i][j])
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("post-reset flow[%d][%d] = %v, cold %v", i, j, a, b)
			}
		}
	}
}
