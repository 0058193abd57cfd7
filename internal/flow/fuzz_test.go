package flow

import (
	"errors"
	"math"
	"testing"
)

// FuzzMinCostFlowSimplex decodes arbitrary bytes into a small graph plus a
// flow request and cross-checks the network-simplex solver against SSP. The
// solver must never panic or loop on malformed, disconnected, or infeasible
// inputs (infeasible ones must surface as ErrDisconnected), and whenever both
// engines solve a non-negative-cost instance they must agree on the optimal
// cost. Negative-cost instances only check invariants: the two engines
// legitimately diverge there (SSP rejects negative cycles, simplex saturates
// them).
func FuzzMinCostFlowSimplex(f *testing.F) {
	f.Add([]byte{4, 0, 1, 5, 10, 1, 3, 4, 20, 0, 2, 3, 5, 2, 3, 9, 5, 12})
	f.Add([]byte{2, 0, 1, 0, 0, 8})
	f.Add([]byte{3, 0, 1, 7, 3, 1, 0, 7, 3, 200}) // cycle, infeasible want
	f.Add([]byte{5, 0, 4, 1, 1, 4, 3, 0, 0, 3, 2, 0, 0, 2, 1, 0, 0, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0]%7)
		want := float64(data[len(data)-1]%32) / 2
		body := data[1 : len(data)-1]

		build := func() *Graph {
			g := NewGraph(n)
			for i := 0; i+4 <= len(body); i += 4 {
				from := int(body[i]) % n
				to := int(body[i+1]) % n
				if from == to {
					continue
				}
				capacity := float64(body[i+2] % 16)
				cost := float64(int(body[i+3])-64) / 8 // negatives included
				g.AddEdge(from, to, capacity, cost)
			}
			return g
		}

		gSpx := build()
		res, err := gSpx.MinCostFlowSimplexWS(0, n-1, want, nil)
		if err != nil && !errors.Is(err, ErrDisconnected) {
			// Capacities here are all finite, so unbounded is impossible; a
			// pivot-budget blow-up would mean the anti-cycling rule failed.
			t.Fatalf("unexpected error class: %v", err)
		}
		// Whatever happened, the written-back flow must respect capacities and
		// conserve at interior nodes.
		net := make([]float64, n)
		for id := 0; id < len(gSpx.edges); id += 2 {
			e := gSpx.edges[id]
			if e.flow < -1e-6 || e.flow > e.cap+1e-6 {
				t.Fatalf("edge %d flow %v outside [0,%v]", id, e.flow, e.cap)
			}
			net[gSpx.edges[id^1].to] += e.flow
			net[e.to] -= e.flow
		}
		if err == nil {
			for v := 1; v < n-1; v++ {
				if math.Abs(net[v]) > 1e-6 {
					t.Fatalf("conservation violated at node %d: %v", v, net[v])
				}
			}
		}

		// Cost cross-check only where the engines' contracts coincide:
		// non-negative costs, both solves clean.
		negative := false
		for id := 0; id < len(gSpx.edges); id += 2 {
			if gSpx.edges[id].cost < 0 {
				negative = true
				break
			}
		}
		if negative {
			return
		}
		gSSP := build()
		ref, refErr := sspSolve(gSSP, 0, n-1, want)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("feasibility disagreement: simplex err=%v, ssp err=%v (want %v)", err, refErr, want)
		}
		if err == nil && math.Abs(res.Cost-ref.Cost) > 1e-9*(1+math.Abs(ref.Cost)) {
			t.Fatalf("cost disagreement: simplex %v, ssp %v (want %v)", res.Cost, ref.Cost, want)
		}
	})
}
