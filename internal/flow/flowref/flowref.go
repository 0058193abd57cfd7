// Package flowref is the successive-shortest-paths (SSP) min-cost-flow solver
// that tests use as an independent referee for the network simplex in
// internal/flow. It shares no code with that package, so flow's own tests can
// import it, and only _test.go files import it: no served path solves with it.
//
// The solver augments along shortest paths of the residual graph found by
// Dijkstra with Johnson potentials, after one Bellman-Ford pass when the graph
// has negative costs. It also answers max-flow queries (want = +Inf), which
// the simplex does not.
package flowref

import (
	"errors"
	"fmt"
	"math"
)

// Graph is a directed flow network under construction. Nodes are dense ints
// [0, n). The zero value is unusable; create with NewGraph.
type Graph struct {
	n     int
	edges []edge // forward/backward edges interleaved: i and i^1 are twins
	// head[u] lists the edge handles leaving u, twins included, in handle
	// order.
	head [][]int
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

// AddEdge adds a directed edge from -> to with the given capacity and
// per-unit cost, returning an edge handle usable with Flow. Handles are
// numbered as internal/flow numbers them, so a graph built by the same
// AddEdge sequence there has the same handles.
func (g *Graph) AddEdge(from, to int, capacity, cost float64) (int, error) {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return 0, fmt.Errorf("flowref: edge (%d,%d) out of range [0,%d)", from, to, g.n)
	}
	if capacity < 0 || math.IsNaN(capacity) || math.IsNaN(cost) || math.IsInf(cost, 0) {
		return 0, fmt.Errorf("flowref: invalid capacity %v or cost %v", capacity, cost)
	}
	id := len(g.edges)
	g.edges = append(g.edges, edge{to: to, cap: capacity, cost: cost})
	g.edges = append(g.edges, edge{to: from, cap: 0, cost: -cost})
	g.head[from] = append(g.head[from], id)
	g.head[to] = append(g.head[to], id+1)
	return id, nil
}

// Flow returns the flow currently carried by edge handle id.
func (g *Graph) Flow(id int) float64 { return g.edges[id].flow }

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
}

// ErrDisconnected is returned by MinCostFlow when the requested flow value
// cannot be routed.
var ErrDisconnected = errors.New("flowref: requested flow not routable")

const _eps = 1e-9

// pqItem is one entry in the Dijkstra priority queue.
type pqItem struct {
	node int
	dist float64
}

// pq is a slice-backed binary min-heap on dist. It reproduces the exact sift
// order of container/heap (including equal-key tie-breaking) without the
// interface{} boxing.
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

// scratch is the per-solve state of one MinCostFlow call.
type scratch struct {
	dist     []float64
	prevEdge []int
	pot      []float64
	settled  []bool
	heap     pq
}

// MinCostFlow sends up to want units (use math.Inf(1) for max-flow) from s to
// t at minimum total cost, augmenting along successive shortest paths in
// bulk. It returns the flow actually sent and its cost. If want is finite and
// cannot be fully routed, it returns what was routed along with
// ErrDisconnected. Potentials begin at zero, or at Bellman-Ford distances
// when the graph has negative costs (Result.UsedBellmanFord); a negative
// cycle is rejected.
func (g *Graph) MinCostFlow(s, t int, want float64) (Result, error) {
	if s < 0 || s >= g.n || t < 0 || t >= g.n {
		return Result{}, fmt.Errorf("flowref: source %d or sink %d out of range", s, t)
	}
	if s == t {
		return Result{}, fmt.Errorf("flowref: source equals sink (%d)", s)
	}
	ws := &scratch{
		dist:     make([]float64, g.n),
		prevEdge: make([]int, g.n),
		pot:      make([]float64, g.n),
		settled:  make([]bool, g.n),
	}
	var res Result
	if g.hasNegativeCost() {
		if err := g.bellmanFord(s, ws.pot); err != nil {
			return Result{}, err
		}
		res.UsedBellmanFord = true
	}

	g.augment(s, t, want, ws, ws.pot, &res)

	if !math.IsInf(want, 1) && res.Flow < want-1e-6 {
		return res, ErrDisconnected
	}
	return res, nil
}

// augment runs the successive-shortest-path loop, pushing flow until want is
// met or t becomes unreachable. pot must be feasible for the current residual
// graph on entry.
//
// Dijkstra settles each node once. Feasible potentials only hold to within
// _eps per edge, so a residual cycle of edges whose reduced costs sit just
// inside -_eps can sum below -_eps: re-relaxing settled nodes around it would
// "improve" distances on every lap and grow the heap without bound.
func (g *Graph) augment(s, t int, want float64, ws *scratch, pot []float64, res *Result) {
	dist := ws.dist
	prevEdge := ws.prevEdge
	settled := ws.settled

	for res.Flow < want-_eps {
		// Dijkstra with reduced costs.
		for i := range dist {
			dist[i] = math.Inf(1)
			prevEdge[i] = -1
			settled[i] = false
		}
		dist[s] = 0
		q := ws.heap[:0]
		q.push(pqItem{node: s, dist: 0})
		for len(q) > 0 {
			u := q.pop().node
			if settled[u] {
				continue
			}
			settled[u] = true
			for _, id := range g.head[u] {
				e := &g.edges[id]
				if e.cap-e.flow <= _eps || settled[e.to] {
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
						return errors.New("flowref: negative cycle detected")
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
