// Package flow solves min-cost flow problems on the transportation-structured
// LP relaxation of the service-caching problem at experiment scale, where the
// dense simplex in internal/lp would be too slow. Its one solver is the primal
// network simplex (simplex.go), reached through one method, Graph.MinCostFlow:
// the spanning-tree basis is carried in a Workspace from one solve to the
// next, so a drifting per-slot instance — rebuilt with Reset and AddEdge in
// the same edge order — re-optimises in a few pivots. Workspace.ResetBasis
// makes the next solve cold. Tests judge it against the successive-
// shortest-paths referee in internal/flow/flowref.
package flow

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Graph is a directed flow network under construction. Nodes are dense ints
// [0, n). The zero value is unusable; create with NewGraph.
type Graph struct {
	n     int
	edges []edge // forward/backward edges interleaved: i and i^1 are twins
}

type edge struct {
	to   int
	cap  float64
	cost float64
	flow float64
}

// NewGraph returns an empty network with n nodes.
func NewGraph(n int) *Graph {
	return &Graph{n: n}
}

// Reset empties the graph and resizes it to n nodes, keeping the edge
// storage for reuse. Handles are positional, so edges re-added in the same
// order get the same handles (and a warm MinCostFlow the same topology).
func (g *Graph) Reset(n int) {
	g.edges = g.edges[:0]
	g.n = n
}

// AddEdge adds a directed edge from -> to with the given capacity and
// per-unit cost, returning an edge handle usable with Flow.
func (g *Graph) AddEdge(from, to int, capacity, cost float64) (int, error) {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return 0, fmt.Errorf("flow: edge (%d,%d) out of range [0,%d)", from, to, g.n)
	}
	if capacity < 0 || math.IsNaN(capacity) || math.IsNaN(cost) || math.IsInf(cost, 0) {
		return 0, fmt.Errorf("flow: invalid capacity %v or cost %v", capacity, cost)
	}
	id := len(g.edges)
	g.edges = append(g.edges, edge{to: to, cap: capacity, cost: cost})
	g.edges = append(g.edges, edge{to: from, cap: 0, cost: -cost})
	return id, nil
}

// Grow reserves room for m more AddEdge calls, so a graph built edge by edge
// allocates its edge storage once, at its final size.
func (g *Graph) Grow(m int) {
	g.edges = slices.Grow(g.edges, 2*m)
}

// Flow returns the flow currently carried by edge handle id.
func (g *Graph) Flow(id int) float64 { return g.edges[id].flow }

// Result summarises a min-cost flow computation.
type Result struct {
	Flow float64
	Cost float64
	// WarmStarted reports whether MinCostFlow reused the spanning-tree basis
	// carried in the Workspace from a previous solve.
	WarmStarted bool
	// Pivots counts network-simplex basis exchanges — the solver's unit of
	// work. It includes any pivots spent on a warm attempt that was later abandoned.
	Pivots int
	// BasisRebuilt reports the simplex solve built its spanning-tree basis
	// from scratch (every cold solve, plus warm solves whose carried basis
	// was unusable — shape drift, infeasible restored tree flows, or a warm
	// pivot budget blow-up).
	BasisRebuilt bool
}

// ErrDisconnected is returned when the requested flow value cannot be
// routed.
var ErrDisconnected = errors.New("flow: requested flow not routable")

// ErrPivotLimit is returned by the network-simplex solver when a cold solve
// exhausts its pivot budget before reaching optimality — a termination
// backstop that should be unreachable on well-posed instances (degenerate
// pivots are bounded by the strongly-feasible-tree rule plus Bland's
// fallback). Callers treat it like any other solver failure and degrade.
var ErrPivotLimit = errors.New("flow: simplex pivot budget exhausted")

const _eps = 1e-9

// Workspace holds the network-simplex basis (spanning tree, arc states, node
// potentials) carried between solves; see simplex.go. A Workspace is not safe
// for concurrent use.
type Workspace struct {
	spx spxBasis
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// ResetBasis drops the carried network-simplex basis, forcing the next
// simplex solve to rebuild from the artificial tree. The persistence layer
// uses it as the warm-state barrier: snapshots exclude solver workspaces, so
// resetting the live process at a checkpoint keeps its solve history
// bit-identical to a restored one.
func (ws *Workspace) ResetBasis() { ws.spx.have = false }
