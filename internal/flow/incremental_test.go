package flow

import (
	"errors"
	"math"
	"testing"
)

// transportGraph is a small caching-shaped transportation network: one source,
// L request nodes, N station nodes, one sink. It mirrors how
// internal/caching lays out its flow relaxation.
type transportGraph struct {
	g      *Graph
	l, n   int
	src    []int   // source -> request edge per request
	asg    [][]int // request -> station edges [l][i]
	sink   []int   // station -> sink edge per station
	supply []float64
	caps   []float64
	costs  [][]float64
	source int
	sinkID int
}

func buildTransport(t *testing.T, supply, caps []float64, costs [][]float64) *transportGraph {
	t.Helper()
	l, n := len(supply), len(caps)
	tg := &transportGraph{
		g: NewGraph(2 + l + n), l: l, n: n,
		src: make([]int, l), asg: make([][]int, l), sink: make([]int, n),
		supply: append([]float64(nil), supply...),
		caps:   append([]float64(nil), caps...),
		costs:  costs,
		source: 0, sinkID: 1 + l + n,
	}
	for i := range tg.asg {
		tg.asg[i] = make([]int, n)
	}
	tg.rewrite(t)
	return tg
}

// rewrite empties the graph and re-wires every edge from the spec's current
// supplies, capacities and costs — the per-slot rebuild a caller performs
// before a warm re-solve. Edges go in in the same order every time, so the
// handles, and the topology a carried basis was built over, stay the same.
func (tg *transportGraph) rewrite(t *testing.T) {
	t.Helper()
	tg.g.Reset(2 + tg.l + tg.n)
	for i := 0; i < tg.l; i++ {
		tg.src[i] = mustEdge(t, tg.g, 0, 1+i, tg.supply[i], 0)
		for j := 0; j < tg.n; j++ {
			tg.asg[i][j] = mustEdge(t, tg.g, 1+i, 1+tg.l+j, tg.supply[i], tg.costs[i][j])
		}
	}
	for j := 0; j < tg.n; j++ {
		tg.sink[j] = mustEdge(t, tg.g, 1+tg.l+j, tg.sinkID, tg.caps[j], 0)
	}
}

func (tg *transportGraph) total() float64 {
	var s float64
	for _, v := range tg.supply {
		s += v
	}
	return s
}

// coldCost solves an equivalent fresh graph from scratch with the cold SSP
// reference solver and returns its cost.
func coldCost(t *testing.T, tg *transportGraph) float64 {
	t.Helper()
	ref := buildTransport(t, tg.supply, tg.caps, tg.costs)
	res, err := sspSolve(ref.g, ref.source, ref.sinkID, ref.total())
	if err != nil {
		t.Fatalf("cold reference solve: %v", err)
	}
	return res.Cost
}

// TestResumeQuietSlotDoesNoWork resumes the network simplex from its carried
// basis on an unchanged instance: the basis is still optimal, so the warm
// solve must reuse it, take zero pivots, and land on the same cost.
func TestResumeQuietSlotDoesNoWork(t *testing.T) {
	tg := buildTransport(t,
		[]float64{3, 4}, []float64{10, 10},
		[][]float64{{1, 2}, {2, 1}})
	ws := NewWorkspace()
	cold, err := tg.g.MinCostFlow(tg.source, tg.sinkID, tg.total(), ws)
	if err != nil {
		t.Fatal(err)
	}
	tg.rewrite(t)
	res, err := tg.g.MinCostFlow(tg.source, tg.sinkID, tg.total(), ws)
	if err != nil {
		t.Fatal(err)
	}
	if !res.WarmStarted || res.BasisRebuilt {
		t.Errorf("quiet resume flags: warm=%v rebuilt=%v, want the carried basis reused",
			res.WarmStarted, res.BasisRebuilt)
	}
	if res.Pivots != 0 {
		t.Errorf("quiet resume ran %d pivots, want 0", res.Pivots)
	}
	if math.Abs(res.Cost-cold.Cost) > 1e-12 {
		t.Errorf("quiet resume cost %v, cold %v", res.Cost, cold.Cost)
	}
}

// TestResumeCancelsNegativeResidualCycle routes 1 unit via A (cost 2), then
// makes the B route free: the residual cycle r -> B -> t -> A(back) ->
// r(back) now has cost -2 and the carried basis is suboptimal. Resuming from
// it must pivot the B route in (cancelling the cycle) and land on the new
// optimum rather than lock the stale routing in.
func TestResumeCancelsNegativeResidualCycle(t *testing.T) {
	g := NewGraph(5)
	const (
		src, r, a, b, snk = 0, 1, 2, 3, 4
	)
	var ra, at, rb, bt int
	wire := func(bCost float64) {
		g.Reset(5)
		mustEdge(t, g, src, r, 1, 0)
		ra = mustEdge(t, g, r, a, 1, 1)
		at = mustEdge(t, g, a, snk, 1, 1)
		rb = mustEdge(t, g, r, b, 1, bCost)
		bt = mustEdge(t, g, b, snk, 1, bCost)
	}
	wire(10)
	ws := NewWorkspace()
	if _, err := g.MinCostFlow(src, snk, 1, ws); err != nil {
		t.Fatal(err)
	}
	if g.Flow(ra) != 1 || g.Flow(at) != 1 {
		t.Fatalf("cold solve did not route through A: ra=%v at=%v", g.Flow(ra), g.Flow(at))
	}
	wire(0)
	res, err := g.MinCostFlow(src, snk, 1, ws)
	if err != nil {
		t.Fatal(err)
	}
	if !res.WarmStarted || res.Pivots == 0 {
		t.Errorf("resume flags: warm=%v pivots=%d, want a warm solve that pivots", res.WarmStarted, res.Pivots)
	}
	if math.Abs(res.Cost) > 1e-9 {
		t.Errorf("resumed cost %v, want 0 (free B route)", res.Cost)
	}
	if g.Flow(rb) != 1 || g.Flow(bt) != 1 || g.Flow(ra) != 0 || g.Flow(at) != 0 {
		t.Errorf("flow not rerouted through B: rb=%v bt=%v ra=%v at=%v",
			g.Flow(rb), g.Flow(bt), g.Flow(ra), g.Flow(at))
	}
}

// TestResumeRepairsPotentialsAfterEviction shrinks one request's supply
// between solves, which evicts part of its carried routing: resuming from the
// carried basis must re-price the potentials and land on the cold SSP
// optimum.
func TestResumeRepairsPotentialsAfterEviction(t *testing.T) {
	tg := buildTransport(t,
		[]float64{5, 5}, []float64{6, 6},
		[][]float64{{1, 4}, {1, 4}})
	ws := NewWorkspace()
	if _, err := tg.g.MinCostFlow(tg.source, tg.sinkID, tg.total(), ws); err != nil {
		t.Fatal(err)
	}
	tg.supply[0] = 2
	tg.rewrite(t)
	res, err := tg.g.MinCostFlow(tg.source, tg.sinkID, tg.total(), ws)
	if err != nil {
		t.Fatal(err)
	}
	if !res.WarmStarted {
		t.Error("shrunken supply did not resume from the carried basis")
	}
	want := coldCost(t, tg)
	if math.Abs(res.Cost-want) > 1e-9 {
		t.Fatalf("resumed cost %v, cold cost %v", res.Cost, want)
	}
	checkFlowInvariants(t, tg.g, tg.source, tg.sinkID, "resumed simplex")
}

// TestResumeInfeasibleReportsDisconnected re-solves a path 0 -> 2 -> 3 warm
// for more than its bottleneck carries. The carried tree cannot carry the new
// supply, so the basis is re-crashed from the carried bounds, which hangs node
// 2 below the root by an artificial arc; the shortfall then settles on that
// arc while t is fully served. The warm solve must still report
// ErrDisconnected, as a cold solve does, for both cost signs.
func TestResumeInfeasibleReportsDisconnected(t *testing.T) {
	for _, cost := range []float64{-2, 1} {
		g := NewGraph(4)
		mustEdge(t, g, 0, 2, 2, cost)
		mustEdge(t, g, 2, 3, 7, cost)
		ws := NewWorkspace()
		if _, err := g.MinCostFlow(0, 3, 0.5, ws); err != nil {
			t.Fatalf("cost %v: feasible cold solve: %v", cost, err)
		}
		res, err := g.MinCostFlow(0, 3, 4.5, ws)
		if !res.WarmStarted {
			t.Fatalf("cost %v: re-solve did not start from the carried basis", cost)
		}
		if !errors.Is(err, ErrDisconnected) {
			t.Errorf("cost %v: warm re-solve for 4.5 over a bottleneck of 2 returned %v, want ErrDisconnected", cost, err)
		}
		if _, err := g.MinCostFlow(0, 3, 4.5, nil); !errors.Is(err, ErrDisconnected) {
			t.Fatalf("cost %v: cold solve returned %v, want ErrDisconnected", cost, err)
		}
	}
}
