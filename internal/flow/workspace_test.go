package flow

import (
	"math"
	"math/rand"
	"testing"
)

// buildTransportation wires a bipartite request/station transportation graph
// with the given per-edge costs, recording the forward-edge handles.
func buildTransportation(t testing.TB, g *Graph, nReq, nBS int, costs []float64) (src, sink int, ids []int) {
	t.Helper()
	src, sink = 0, 1+nReq+nBS
	ci := 0
	for r := 0; r < nReq; r++ {
		id, err := g.AddEdge(src, 1+r, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		for s := 0; s < nBS; s++ {
			id, err := g.AddEdge(1+r, 1+nReq+s, math.Inf(1), costs[ci])
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
			ci++
		}
	}
	for s := 0; s < nBS; s++ {
		id, err := g.AddEdge(1+nReq+s, sink, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return src, sink, ids
}

// TestWorkspaceReuseBitIdentical drives one reusable graph+workspace through a
// sequence of cost perturbations (the per-slot hot path) and checks every
// cold simplex solve is bit-identical to a from-scratch graph solved on a
// fresh workspace: Reset, the kept edge storage and the carried basis storage
// leave no trace in a cold solve.
func TestWorkspaceReuseBitIdentical(t *testing.T) {
	const nReq, nBS, rounds = 6, 4, 8
	rng := rand.New(rand.NewSource(7))
	costs := make([]float64, nReq*nBS)

	ws := NewWorkspace()
	reused := NewGraph(0)
	for round := 0; round < rounds; round++ {
		for i := range costs {
			costs[i] = rng.Float64() * 10
		}
		// Reference: fresh graph, fresh everything.
		fg := NewGraph(2 + nReq + nBS)
		fs, ft, _ := buildTransportation(t, fg, nReq, nBS, costs)
		want, err := fg.MinCostFlow(fs, ft, nReq, NewWorkspace())
		if err != nil {
			t.Fatal(err)
		}
		// Hot path: re-wire the reused graph on its kept storage and drop the
		// carried basis, so the solve is cold.
		reused.Reset(2 + nReq + nBS)
		src, sink, ids := buildTransportation(t, reused, nReq, nBS, costs)
		ws.ResetBasis()
		got, err := reused.MinCostFlow(src, sink, nReq, ws)
		if err != nil {
			t.Fatal(err)
		}
		if got.Flow != want.Flow || got.Cost != want.Cost || got.Pivots != want.Pivots {
			t.Fatalf("round %d: workspace solve = flow %x cost %x pivots %d, fresh = flow %x cost %x pivots %d",
				round, got.Flow, got.Cost, got.Pivots, want.Flow, want.Cost, want.Pivots)
		}
		for _, id := range ids {
			if math.Float64bits(reused.Flow(id)) != math.Float64bits(fg.Flow(id)) {
				t.Fatalf("round %d: edge %d carries %v, fresh %v", round, id, reused.Flow(id), fg.Flow(id))
			}
		}
	}
}

// TestResetReusesStorage checks Reset yields a working empty graph.
func TestResetReusesStorage(t *testing.T) {
	g := NewGraph(4)
	mustEdge(t, g, 0, 1, 1, 1)
	mustEdge(t, g, 1, 3, 1, 1)
	g.Reset(3)
	if g.n != 3 || len(g.edges) != 0 {
		t.Fatalf("after Reset: %d nodes, %d edges", g.n, len(g.edges)/2)
	}
	mustEdge(t, g, 0, 1, 2, 1)
	mustEdge(t, g, 1, 2, 2, 1)
	res, err := g.MinCostFlow(0, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 2 || res.Cost != 4 {
		t.Fatalf("after Reset solve = %+v, want flow 2 cost 4", res)
	}
}
