// Package flow solves min-cost flow problems on the transportation-structured
// LP relaxation of the service-caching problem at experiment scale, where the
// dense simplex in internal/lp would be too slow. It has two solvers:
//
//   - the primal network simplex (simplex.go), the production path: its
//     spanning-tree basis is carried in a Workspace from one solve to the
//     next, so a drifting per-slot instance re-optimises in a few pivots;
//   - successive shortest paths with Johnson potentials (MinCostFlowWS), a
//     cold solver kept as the independent reference the simplex is tested
//     against, and for max-flow queries (want = +Inf).
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
	// head[u] lists the edge handles leaving u, twins included, in handle
	// order. Only the SSP solver walks it, so MinCostFlowWS builds it (see
	// index) instead of AddEdge: the network simplex never pays for it.
	head    [][]int
	indexed int // edges [0, indexed) are listed in head
}

type edge struct {
	to   int
	cap  float64
	cost float64
	flow float64
}

// NewGraph returns an empty network with n nodes.
func NewGraph(n int) *Graph {
	return &Graph{n: n, head: make([][]int, n)}
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges reports the number of forward edges added so far.
func (g *Graph) NumEdges() int { return len(g.edges) / 2 }

// Reset empties the graph and resizes it to n nodes, keeping the edge and
// adjacency storage for reuse. Edge handles from before the Reset are invalid.
func (g *Graph) Reset(n int) {
	g.edges = g.edges[:0]
	g.indexed = 0
	if n <= cap(g.head) {
		g.head = g.head[:n]
		for i := range g.head {
			g.head[i] = g.head[i][:0]
		}
	} else {
		old := len(g.head)
		g.head = g.head[:cap(g.head)]
		for i := 0; i < old; i++ {
			g.head[i] = g.head[i][:0]
		}
		for len(g.head) < n {
			g.head = append(g.head, nil)
		}
	}
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

// index lists the edges added since the last call in head.
func (g *Graph) index() {
	for id := g.indexed; id < len(g.edges); id += 2 {
		from, to := g.edges[id+1].to, g.edges[id].to
		g.head[from] = append(g.head[from], id)
		g.head[to] = append(g.head[to], id+1)
	}
	g.indexed = len(g.edges)
}

// SetEdge rewrites the capacity and cost of an existing edge handle in place,
// zeroing any flow it carried. Endpoints are unchanged — this is the per-slot
// fast path when only costs and capacities move between solves.
func (g *Graph) SetEdge(id int, capacity, cost float64) error {
	if id < 0 || id >= len(g.edges) || id%2 != 0 {
		return fmt.Errorf("flow: invalid edge handle %d", id)
	}
	if capacity < 0 || math.IsNaN(capacity) || math.IsNaN(cost) || math.IsInf(cost, 0) {
		return fmt.Errorf("flow: invalid capacity %v or cost %v", capacity, cost)
	}
	g.edges[id].cap = capacity
	g.edges[id].cost = cost
	g.edges[id].flow = 0
	g.edges[id^1].cap = 0
	g.edges[id^1].cost = -cost
	g.edges[id^1].flow = 0
	return nil
}

// Flow returns the flow currently carried by edge handle id.
func (g *Graph) Flow(id int) float64 { return g.edges[id].flow }

// Cost returns the per-unit cost currently set on edge handle id. Callers use
// it to measure drift against a previous slot without shadowing edge state.
func (g *Graph) Cost(id int) float64 { return g.edges[id].cost }

// Result summarises a min-cost flow computation.
type Result struct {
	Flow float64
	Cost float64
	// Augmentations counts shortest-path searches that pushed flow — the
	// solver's unit of work (each is one Dijkstra over the residual graph).
	Augmentations int
	// UsedBellmanFord reports whether negative edge costs forced the initial
	// Bellman-Ford potential pass (the slow path).
	UsedBellmanFord bool
	// WarmStarted reports whether state carried in the Workspace from a
	// previous solve was reused: potentials that replaced the Bellman-Ford
	// pass (MinCostFlowWS), or the spanning-tree basis
	// (MinCostFlowSimplexWarmWS).
	WarmStarted bool
	// Pivots counts network-simplex basis exchanges — the simplex solver's
	// unit of work, the counterpart of Augmentations on the SSP path. It
	// includes any pivots spent on a warm attempt that was later abandoned.
	Pivots int
	// BasisRebuilt reports the simplex solve built its spanning-tree basis
	// from scratch (every cold solve, plus warm solves whose carried basis
	// was unusable — shape drift, infeasible restored tree flows, or a warm
	// pivot budget blow-up).
	BasisRebuilt bool
}

// ErrDisconnected is returned by MinCostFlow when the requested flow value
// cannot be routed.
var ErrDisconnected = errors.New("flow: requested flow not routable")

// ErrPivotLimit is returned by the network-simplex solver when a cold solve
// exhausts its pivot budget before reaching optimality — a termination
// backstop that should be unreachable on well-posed instances (degenerate
// pivots are bounded by the strongly-feasible-tree rule plus Bland's
// fallback). Callers treat it like any other solver failure and degrade.
var ErrPivotLimit = errors.New("flow: simplex pivot budget exhausted")

const _eps = 1e-9

// pqItem is one entry in the Dijkstra priority queue.
type pqItem struct {
	node int
	dist float64
}

// pq is a slice-backed binary min-heap on dist. It reproduces the exact sift
// order of container/heap (including equal-key tie-breaking) without the
// interface{} boxing, so Push/Pop allocate nothing once the backing array has
// grown.
type pq []pqItem

func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	// Sift up, as container/heap.Push -> up(len-1).
	h := *q
	j := len(h) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if !(h[j].dist < h[parent].dist) {
			break
		}
		h[j], h[parent] = h[parent], h[j]
		j = parent
	}
}

func (q *pq) pop() pqItem {
	// As container/heap.Pop: swap root with last, sift down over [0, n), then
	// shrink.
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		j := left
		if right := left + 1; right < n && h[right].dist < h[left].dist {
			j = right
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	*q = h[:n]
	return it
}

// Workspace holds the per-solve scratch state for MinCostFlowWS — the
// distance, parent, and potential arrays plus the priority queue backing — so
// repeated solves over same-sized graphs allocate nothing. It also carries the
// node potentials out of one solve into the next: on graphs with negative raw
// costs they can replace the Bellman-Ford initialisation (see MinCostFlowWS).
// A Workspace is not safe for concurrent use.
type Workspace struct {
	dist     []float64
	prevEdge []int
	pot      []float64
	heap     pq

	warmPot  []float64
	haveWarm bool

	// spx is the network-simplex basis (spanning tree, arc states, node
	// potentials) carried between MinCostFlowSimplexWS solves; see simplex.go.
	spx spxBasis
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// ensure sizes the scratch arrays for an n-node graph.
func (ws *Workspace) ensure(n int) {
	if cap(ws.dist) < n {
		ws.dist = make([]float64, n)
		ws.prevEdge = make([]int, n)
		ws.pot = make([]float64, n)
	}
	ws.dist = ws.dist[:n]
	ws.prevEdge = ws.prevEdge[:n]
	ws.pot = ws.pot[:n]
	ws.heap = ws.heap[:0]
}

// Reset drops any carried-over potentials and the carried simplex basis (but
// keeps the buffers).
func (ws *Workspace) Reset() {
	ws.haveWarm = false
	ws.spx.have = false
}

// ResetBasis drops only the carried network-simplex basis, forcing the next
// simplex solve to rebuild from the artificial tree. The persistence layer
// uses it as the warm-state barrier: snapshots exclude solver workspaces, so
// resetting the live process at a checkpoint keeps its solve history
// bit-identical to a restored one.
func (ws *Workspace) ResetBasis() { ws.spx.have = false }

// MinCostFlow sends up to want units (use math.Inf(1) for max-flow) from s to
// t at minimum total cost, augmenting along successive shortest paths in
// bulk. It returns the flow actually sent and its cost. If want is finite and
// cannot be fully routed, it returns what was routed along with
// ErrDisconnected.
func (g *Graph) MinCostFlow(s, t int, want float64) (Result, error) {
	return g.MinCostFlowWS(s, t, want, NewWorkspace())
}

// MinCostFlowWS is MinCostFlow with caller-owned scratch state. Reusing the
// same Workspace across solves makes the solver allocation-free.
//
// Warm starts: potentials always begin at zero, exactly as in a fresh solve,
// so on graphs with non-negative costs the result is bit-identical to
// MinCostFlow. Only when negative raw costs would force the Bellman-Ford
// pass does the workspace offer its carried potentials instead — and they are
// adopted only if they are verifiably feasible over the current residual
// graph (every residual edge has non-negative reduced cost). Infeasible or
// absent carried potentials fall back to Bellman-Ford, reported via
// Result.UsedBellmanFord as before.
func (g *Graph) MinCostFlowWS(s, t int, want float64, ws *Workspace) (Result, error) {
	if s < 0 || s >= g.n || t < 0 || t >= g.n {
		return Result{}, fmt.Errorf("flow: source %d or sink %d out of range", s, t)
	}
	if s == t {
		return Result{}, fmt.Errorf("flow: source equals sink (%d)", s)
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.ensure(g.n)
	g.index()

	pot := ws.pot
	for i := range pot {
		pot[i] = 0
	}
	var res Result
	if g.hasNegativeCost() {
		if ws.haveWarm && len(ws.warmPot) == g.n && g.potentialsFeasible(ws.warmPot) {
			copy(pot, ws.warmPot)
			res.WarmStarted = true
		} else {
			if err := g.bellmanFord(s, pot); err != nil {
				return Result{}, err
			}
			res.UsedBellmanFord = true
		}
	}

	g.augment(s, t, want, ws, pot, &res)

	// Carry the final potentials into the next solve.
	g.carryPotentials(ws, pot)

	if !math.IsInf(want, 1) && res.Flow < want-1e-6 {
		return res, ErrDisconnected
	}
	return res, nil
}

// augment runs the successive-shortest-path loop, pushing flow until want is
// met or t becomes unreachable. pot must be feasible for the current residual
// graph on entry.
func (g *Graph) augment(s, t int, want float64, ws *Workspace, pot []float64, res *Result) {
	dist := ws.dist
	prevEdge := ws.prevEdge

	for res.Flow < want-_eps {
		// Dijkstra with reduced costs.
		for i := range dist {
			dist[i] = math.Inf(1)
			prevEdge[i] = -1
		}
		dist[s] = 0
		q := ws.heap[:0]
		q.push(pqItem{node: s, dist: 0})
		for len(q) > 0 {
			it := q.pop()
			if it.dist > dist[it.node]+_eps {
				continue
			}
			u := it.node
			for _, id := range g.head[u] {
				e := &g.edges[id]
				if e.cap-e.flow <= _eps {
					continue
				}
				nd := dist[u] + e.cost + pot[u] - pot[e.to]
				if nd < dist[e.to]-_eps {
					dist[e.to] = nd
					prevEdge[e.to] = id
					q.push(pqItem{node: e.to, dist: nd})
				}
			}
		}
		ws.heap = q[:0]
		if math.IsInf(dist[t], 1) {
			break
		}
		for i := range pot {
			if !math.IsInf(dist[i], 1) {
				pot[i] += dist[i]
			}
		}
		// Bottleneck along the path.
		push := want - res.Flow
		for v := t; v != s; {
			e := &g.edges[prevEdge[v]]
			if r := e.cap - e.flow; r < push {
				push = r
			}
			v = g.edges[prevEdge[v]^1].to
		}
		for v := t; v != s; {
			id := prevEdge[v]
			g.edges[id].flow += push
			g.edges[id^1].flow -= push
			res.Cost += push * g.edges[id].cost
			v = g.edges[id^1].to
		}
		res.Flow += push
		res.Augmentations++
	}
}

// carryPotentials stores the final potentials for the next solve's warm start.
func (g *Graph) carryPotentials(ws *Workspace, pot []float64) {
	if cap(ws.warmPot) < g.n {
		ws.warmPot = make([]float64, g.n)
	}
	ws.warmPot = ws.warmPot[:g.n]
	copy(ws.warmPot, pot)
	ws.haveWarm = true
}

// potentialsFeasible reports whether pot yields non-negative reduced costs on
// every residual edge — the condition for Dijkstra to be exact without a
// Bellman-Ford pass.
func (g *Graph) potentialsFeasible(pot []float64) bool {
	for u := 0; u < g.n; u++ {
		for _, id := range g.head[u] {
			e := &g.edges[id]
			if e.cap-e.flow <= _eps {
				continue
			}
			if e.cost+pot[u]-pot[e.to] < -_eps {
				return false
			}
		}
	}
	return true
}

func (g *Graph) hasNegativeCost() bool {
	for i := 0; i < len(g.edges); i += 2 {
		if g.edges[i].cost < 0 {
			return true
		}
	}
	return false
}

// bellmanFord initialises potentials when negative edge costs are present.
func (g *Graph) bellmanFord(s int, pot []float64) error {
	for i := range pot {
		pot[i] = math.Inf(1)
	}
	pot[s] = 0
	for iter := 0; iter < g.n; iter++ {
		changed := false
		for u := 0; u < g.n; u++ {
			if math.IsInf(pot[u], 1) {
				continue
			}
			for _, id := range g.head[u] {
				e := &g.edges[id]
				if e.cap-e.flow <= _eps {
					continue
				}
				if nd := pot[u] + e.cost; nd < pot[e.to]-_eps {
					pot[e.to] = nd
					changed = true
					if iter == g.n-1 {
						return errors.New("flow: negative cycle detected")
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	// Unreached nodes keep +Inf; normalise to 0 so reduced costs stay finite.
	for i := range pot {
		if math.IsInf(pot[i], 1) {
			pot[i] = 0
		}
	}
	return nil
}
