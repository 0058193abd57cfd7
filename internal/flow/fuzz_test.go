package flow

import (
	"errors"
	"math"
	"testing"
)

// fuzzInstance is one decoded fuzz input: a graph of at most 8 nodes with
// capacities under 16, solved from node 0 to node n-1 for want units, then
// re-solved warm for want2 units.
type fuzzInstance struct {
	n           int
	want, want2 float64
	body        []byte
}

// decodeFuzz maps arbitrary bytes onto an instance: data[0] gives the node
// count (its residue mod 7) and want2 (its quotient), the last byte gives
// want, and every 4 bytes in between an edge (from, to, capacity, cost; costs
// span [-8, 24) so negatives are included). nil means too few bytes.
func decodeFuzz(data []byte) *fuzzInstance {
	if len(data) < 2 {
		return nil
	}
	return &fuzzInstance{
		n:     2 + int(data[0]%7),
		want:  float64(data[len(data)-1]%32) / 2,
		want2: float64(data[0]/7%32) / 2,
		body:  data[1 : len(data)-1],
	}
}

// build wires the instance's edges onto a fresh graph.
func (fi *fuzzInstance) build() *Graph {
	g := NewGraph(fi.n)
	for i := 0; i+4 <= len(fi.body); i += 4 {
		from := int(fi.body[i]) % fi.n
		to := int(fi.body[i+1]) % fi.n
		if from == to {
			continue
		}
		capacity := float64(fi.body[i+2] % 16)
		cost := float64(int(fi.body[i+3])-64) / 8
		g.AddEdge(from, to, capacity, cost)
	}
	return g
}

// fuzzSeeds is the checked-in corpus. The first five are small instances;
// the rest are eight-node instances whose cold and warm solves need many
// pivots (pinned by TestFuzzSeedsNeedPivots), so a solver that stops
// pivoting early fails the corpus under plain go test.
var fuzzSeeds = [][]byte{
	{4, 0, 1, 5, 10, 1, 3, 4, 20, 0, 2, 3, 5, 2, 3, 9, 5, 12},
	{2, 0, 1, 0, 0, 8},
	{3, 0, 1, 7, 3, 1, 0, 7, 3, 200}, // cycle, infeasible want
	{5, 0, 4, 1, 1, 4, 3, 0, 0, 3, 2, 0, 0, 2, 1, 0, 0, 30},
	// Warm re-solve past a bottleneck: was reported feasible while an
	// artificial arc fed node 2 (TestResumeInfeasibleReportsDisconnected).
	{65, 50, 55, 55, 48, 48, 50, 50, 48, 65},
	{132, 2, 1, 6, 83, 5, 7, 1, 152, 0, 5, 11, 144, 0, 2, 4, 102, 1, 5, 7, 72, 2, 5, 9, 75, 0, 1, 15, 73,
		1, 2, 15, 99, 6, 2, 9, 125, 3, 7, 5, 112, 4, 6, 13, 139, 4, 2, 4, 80, 4, 2, 2, 154, 6, 7, 5, 158,
		4, 1, 6, 84, 3, 7, 14, 139, 1, 3, 14, 150, 10},
	{104, 4, 4, 1, 157, 4, 5, 8, 88, 5, 2, 12, 88, 5, 6, 2, 88, 6, 4, 14, 143, 2, 7, 7, 144, 3, 2, 6, 125,
		3, 4, 7, 90, 5, 4, 3, 83, 1, 7, 3, 135, 6, 2, 13, 129, 1, 7, 4, 159, 3, 2, 15, 111, 0, 1, 11, 144,
		1, 6, 2, 98, 0, 4, 12, 67, 25},
	{62, 4, 2, 14, 136, 0, 7, 7, 136, 2, 7, 10, 73, 6, 4, 13, 154, 0, 6, 5, 108, 5, 5, 5, 130, 6, 6, 15,
		84, 6, 3, 6, 64, 0, 3, 13, 149, 6, 0, 6, 142, 5, 0, 2, 134, 3, 4, 9, 74, 5, 7, 11, 95, 7, 1, 9,
		125, 5, 0, 9, 65, 6, 6, 8, 118, 1, 6, 10, 110, 26},
	{62, 2, 5, 1, 87, 6, 5, 8, 101, 5, 7, 3, 101, 5, 1, 8, 67, 3, 2, 2, 105, 2, 7, 3, 67, 3, 6, 4, 129,
		3, 2, 2, 72, 6, 4, 10, 129, 0, 5, 14, 143, 4, 7, 6, 131, 0, 6, 14, 70, 1, 3, 5, 114, 6, 1, 1, 154,
		22},
}

// TestFuzzSeedsNeedPivots pins that the eight-node corpus seeds make the
// solver work: every one is feasible for both wants, costs are
// non-negative (so the fuzz body cross-checks both solves against SSP), the
// cold solve needs at least 10 pivots and the warm re-solve resumes from the
// carried basis and still needs at least 6.
func TestFuzzSeedsNeedPivots(t *testing.T) {
	for i, seed := range fuzzSeeds[5:] {
		fi := decodeFuzz(seed)
		if fi.n != 8 {
			t.Fatalf("seed %d decodes to %d nodes, want 8", i, fi.n)
		}
		g := fi.build()
		for id := 0; id < len(g.edges); id += 2 {
			if g.edges[id].cost < 0 {
				t.Fatalf("seed %d has negative-cost edge %d; SSP would not check it", i, id)
			}
		}
		ws := NewWorkspace()
		cold, err := g.MinCostFlow(0, fi.n-1, fi.want, ws)
		if err != nil {
			t.Fatalf("seed %d cold (want %v): %v", i, fi.want, err)
		}
		warm, err := g.MinCostFlow(0, fi.n-1, fi.want2, ws)
		if err != nil {
			t.Fatalf("seed %d warm (want %v): %v", i, fi.want2, err)
		}
		if cold.Pivots < 10 || !warm.WarmStarted || warm.Pivots < 6 {
			t.Errorf("seed %d: cold %d pivots, warm %d pivots (warm started %v); want >= 10 cold and a warm start taking >= 6",
				i, cold.Pivots, warm.Pivots, warm.WarmStarted)
		}
	}
}

// FuzzMinCostFlowSimplex decodes arbitrary bytes into a small graph plus two
// flow requests and cross-checks the network-simplex solver against the SSP
// referee: a cold solve for want, then a warm re-solve for want2 on the same
// workspace, which resumes from the basis the cold solve left. The solver
// must never panic or loop on malformed, disconnected, or infeasible inputs
// (infeasible ones must surface as ErrDisconnected), and whenever both
// engines solve a non-negative-cost instance they must agree on the optimal
// cost. Negative-cost instances only check invariants: the two engines
// legitimately diverge there (SSP rejects negative cycles, simplex saturates
// them).
func FuzzMinCostFlowSimplex(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fi := decodeFuzz(data)
		if fi == nil {
			return
		}
		g := fi.build()
		ws := NewWorkspace()
		for _, want := range []float64{fi.want, fi.want2} {
			res, err := g.MinCostFlow(0, fi.n-1, want, ws)
			checkFuzzSolve(t, fi, g, want, res, err)
		}
	})
}

// checkFuzzSolve checks one solve of a fuzz instance: error class, capacity
// and conservation invariants of the written-back flow, and — on
// non-negative costs — feasibility and optimal cost against SSP.
func checkFuzzSolve(t *testing.T, fi *fuzzInstance, g *Graph, want float64, res Result, err error) {
	t.Helper()
	if err != nil && !errors.Is(err, ErrDisconnected) {
		// Capacities here are all finite, so unbounded is impossible; a
		// pivot-budget blow-up would mean the anti-cycling rule failed.
		t.Fatalf("want %v: unexpected error class: %v", want, err)
	}
	// Whatever happened, the written-back flow must respect capacities and
	// conserve at interior nodes.
	net := make([]float64, fi.n)
	negative := false
	for id := 0; id < len(g.edges); id += 2 {
		e := g.edges[id]
		if e.flow < -1e-6 || e.flow > e.cap+1e-6 {
			t.Fatalf("want %v: edge %d flow %v outside [0,%v]", want, id, e.flow, e.cap)
		}
		net[g.edges[id^1].to] += e.flow
		net[e.to] -= e.flow
		negative = negative || e.cost < 0
	}
	if err == nil {
		for v := 1; v < fi.n-1; v++ {
			if math.Abs(net[v]) > 1e-6 {
				t.Fatalf("want %v: conservation violated at node %d: %v", want, v, net[v])
			}
		}
	}
	// Cost cross-check only where the engines' contracts coincide:
	// non-negative costs, both solves clean.
	if negative {
		return
	}
	ref, refErr := sspSolve(fi.build(), 0, fi.n-1, want)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("want %v: feasibility disagreement: simplex err=%v, ssp err=%v", want, err, refErr)
	}
	if err == nil && math.Abs(res.Cost-ref.Cost) > 1e-9*(1+math.Abs(ref.Cost)) {
		t.Fatalf("want %v: cost disagreement: simplex %v, ssp %v", want, res.Cost, ref.Cost)
	}
}
