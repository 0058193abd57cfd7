package flow

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/mecsim/l4e/internal/flow/flowref"
)

// The tests in this file pin the successive-shortest-paths referee
// (internal/flow/flowref) that the network-simplex tests compare against.

// sspSolve solves a copy of g with the SSP referee and writes the referee's
// flows back onto g's edges, so checks written against a simplex-solved
// Graph read an SSP-solved one the same way. g's edges are added to the copy
// in handle order, so both graphs number their edges alike.
func sspSolve(g *Graph, s, t int, want float64) (flowref.Result, error) {
	ref := flowref.NewGraph(g.n)
	for id := 0; id < len(g.edges); id += 2 {
		if _, err := ref.AddEdge(g.edges[id^1].to, g.edges[id].to, g.edges[id].cap, g.edges[id].cost); err != nil {
			return flowref.Result{}, err
		}
	}
	res, err := ref.MinCostFlow(s, t, want)
	for id := 0; id < len(g.edges); id += 2 {
		g.edges[id].flow = ref.Flow(id)
		g.edges[id^1].flow = -ref.Flow(id)
	}
	return res, err
}

func TestSingleEdge(t *testing.T) {
	g := NewGraph(2)
	id, err := g.AddEdge(0, 1, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sspSolve(g, 0, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 3 || res.Cost != 6 {
		t.Errorf("got flow=%v cost=%v, want 3, 6", res.Flow, res.Cost)
	}
	if g.Flow(id) != 3 {
		t.Errorf("edge flow = %v, want 3", g.Flow(id))
	}
}

func TestChoosesCheaperPath(t *testing.T) {
	// 0 -> 1 -> 3 (cost 1+1) vs 0 -> 2 -> 3 (cost 5+5); caps 10 each.
	g := NewGraph(4)
	mustEdge(t, g, 0, 1, 10, 1)
	mustEdge(t, g, 1, 3, 10, 1)
	mustEdge(t, g, 0, 2, 10, 5)
	mustEdge(t, g, 2, 3, 10, 5)
	res, err := sspSolve(g, 0, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 20 {
		t.Errorf("cost = %v, want 20 (cheap path only)", res.Cost)
	}
}

func TestSplitsAcrossPathsWhenSaturated(t *testing.T) {
	g := NewGraph(4)
	mustEdge(t, g, 0, 1, 4, 1)
	mustEdge(t, g, 1, 3, 4, 1)
	mustEdge(t, g, 0, 2, 10, 3)
	mustEdge(t, g, 2, 3, 10, 3)
	res, err := sspSolve(g, 0, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	// 4 units at cost 2 + 6 units at cost 6 = 8 + 36 = 44.
	if res.Flow != 10 || math.Abs(res.Cost-44) > 1e-9 {
		t.Errorf("got flow=%v cost=%v, want 10, 44", res.Flow, res.Cost)
	}
}

func TestMaxFlowMode(t *testing.T) {
	g := NewGraph(3)
	mustEdge(t, g, 0, 1, 7, 1)
	mustEdge(t, g, 1, 2, 5, 1)
	res, err := sspSolve(g, 0, 2, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 5 {
		t.Errorf("max flow = %v, want 5", res.Flow)
	}
}

func TestDisconnected(t *testing.T) {
	g := NewGraph(3)
	mustEdge(t, g, 0, 1, 5, 1)
	res, err := sspSolve(g, 0, 2, 1)
	if !errors.Is(err, flowref.ErrDisconnected) {
		t.Fatalf("err = %v, want ErrDisconnected", err)
	}
	if res.Flow != 0 {
		t.Errorf("flow = %v, want 0", res.Flow)
	}
}

func TestNegativeCosts(t *testing.T) {
	// Negative edge: 0->1 cost -2 cap 3; 1->2 cost 1 cap 3.
	g := NewGraph(3)
	mustEdge(t, g, 0, 1, 3, -2)
	mustEdge(t, g, 1, 2, 3, 1)
	res, err := sspSolve(g, 0, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-(-3)) > 1e-9 {
		t.Errorf("cost = %v, want -3", res.Cost)
	}
}

func TestReroutesThroughResidual(t *testing.T) {
	// Classic residual test: suboptimal greedy first path must be undone.
	//    0 -> 1 (cap 1, cost 1), 0 -> 2 (cap 1, cost 2)
	//    1 -> 2 (cap 1, cost 0), 1 -> 3 (cap 1, cost 2), 2 -> 3 (cap 1, cost 1)
	g := NewGraph(4)
	mustEdge(t, g, 0, 1, 1, 1)
	mustEdge(t, g, 0, 2, 1, 2)
	mustEdge(t, g, 1, 2, 1, 0)
	mustEdge(t, g, 1, 3, 1, 2)
	mustEdge(t, g, 2, 3, 1, 1)
	res, err := sspSolve(g, 0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: 0-1-2-3 (cost 2) + 0-2? cap conflict... SSP finds min total 7?
	// Enumerate: two units: paths {0-1-2-3, 0-2-3 blocked by 2-3 cap}.
	// Valid pair: 0-1-2-3 (2) and 0-2-...-3 impossible; 0-1-3 (3) and 0-2-3 (3) = 6.
	if res.Flow != 2 || math.Abs(res.Cost-6) > 1e-9 {
		t.Errorf("got flow=%v cost=%v, want 2, 6", res.Flow, res.Cost)
	}
}

func TestInvalidInputs(t *testing.T) {
	g := NewGraph(2)
	if _, err := g.AddEdge(-1, 0, 1, 1); err == nil {
		t.Error("negative node accepted")
	}
	if _, err := g.AddEdge(0, 5, 1, 1); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := g.AddEdge(0, 1, -1, 1); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := g.AddEdge(0, 1, 1, math.NaN()); err == nil {
		t.Error("NaN cost accepted")
	}
	if _, err := sspSolve(g, 0, 0, 1); err == nil {
		t.Error("source == sink accepted")
	}
	if _, err := sspSolve(g, -1, 1, 1); err == nil {
		t.Error("bad source accepted")
	}
}

// TestPropertyAgainstBruteForce compares the SSP referee on small random layered
// transportation graphs against exhaustive enumeration of integral flows.
func TestPropertyAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// 2 sources of supply 1 each feeding 3 middles to 1 sink: enumerate
		// all assignments of each unit to a middle node.
		nMid := 2 + rng.Intn(2)
		costs := make([][2]float64, nMid) // [in, out] costs
		caps := make([]float64, nMid)
		for i := range costs {
			costs[i] = [2]float64{float64(rng.Intn(5)), float64(rng.Intn(5))}
			caps[i] = float64(1 + rng.Intn(2))
		}
		// Build graph: 0 = source, 1..nMid = middles, nMid+1 = sink.
		g := NewGraph(nMid + 2)
		sink := nMid + 1
		for i := 0; i < nMid; i++ {
			if _, err := g.AddEdge(0, i+1, caps[i], costs[i][0]); err != nil {
				return false
			}
			if _, err := g.AddEdge(i+1, sink, caps[i], costs[i][1]); err != nil {
				return false
			}
		}
		want := 2.0
		total := 0.0
		for _, c := range caps {
			total += c
		}
		if total < want {
			want = total
		}
		res, err := sspSolve(g, 0, sink, want)
		if err != nil {
			return false
		}
		// Brute force: distribute `want` units integrally over middles.
		best := math.Inf(1)
		var rec func(i int, left float64, cost float64)
		rec = func(i int, left float64, cost float64) {
			if i == nMid {
				if left == 0 && cost < best {
					best = cost
				}
				return
			}
			for u := 0.0; u <= caps[i] && u <= left; u++ {
				rec(i+1, left-u, cost+u*(costs[i][0]+costs[i][1]))
			}
		}
		rec(0, want, 0)
		return math.Abs(res.Cost-best) < 1e-6 && math.Abs(res.Flow-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyFlowConservation checks conservation and capacity on random graphs.
func TestPropertyFlowConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(6)
		g := NewGraph(n)
		ids := make([]int, 0, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.3 {
					id, err := g.AddEdge(i, j, float64(1+rng.Intn(5)), float64(rng.Intn(10)))
					if err != nil {
						return false
					}
					ids = append(ids, id)
				}
			}
		}
		res, err := sspSolve(g, 0, n-1, math.Inf(1))
		if err != nil {
			return false
		}
		// Capacity: 0 <= flow <= cap on all forward edges.
		net := make([]float64, n)
		for _, id := range ids {
			e := g.edges[id]
			if e.flow < -1e-9 || e.flow > e.cap+1e-9 {
				return false
			}
			from := g.edges[id^1].to
			net[from] += e.flow
			net[e.to] -= e.flow
		}
		// Conservation at internal nodes; source surplus == sink deficit == flow.
		for v := 1; v < n-1; v++ {
			if math.Abs(net[v]) > 1e-6 {
				return false
			}
		}
		return math.Abs(net[0]-res.Flow) < 1e-6 && math.Abs(net[n-1]+res.Flow) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func mustEdge(t *testing.T, g *Graph, from, to int, capacity, cost float64) int {
	t.Helper()
	id, err := g.AddEdge(from, to, capacity, cost)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestNegativeCycleDetected(t *testing.T) {
	// 0 -> 1 (cost -5), 1 -> 0 (cost -5): a negative cycle reachable from
	// the source must be reported, not looped on forever.
	g := NewGraph(3)
	mustEdge(t, g, 0, 1, 5, -5)
	mustEdge(t, g, 1, 0, 5, -5)
	mustEdge(t, g, 1, 2, 5, 1)
	if _, err := sspSolve(g, 0, 2, 1); err == nil {
		t.Error("negative cycle accepted")
	}
}

func TestZeroFlowRequest(t *testing.T) {
	g := NewGraph(2)
	mustEdge(t, g, 0, 1, 5, 2)
	res, err := sspSolve(g, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 0 || res.Cost != 0 {
		t.Errorf("zero-flow result = %+v", res)
	}
}
