package flow

// simplex.go implements the package's min-cost-flow solver, a primal network
// simplex. Where successive shortest paths pays one Dijkstra per distinct
// augmenting-path cost — ~110 phases on a drifting assignment slot — the
// simplex re-optimises by basis exchanges: a spanning-tree basis with
// parent/pred/depth/thread indices, candidate-list pricing over reduced costs,
// leaving-arc selection by minimum ratio, and the strongly-feasible-tree rule
// (last blocking arc in cycle orientation from the apex) so degenerate
// zero-flow pivots cannot cycle. Bland's smallest-index rule kicks in as an
// anti-stalling fallback after a run of consecutive degenerate pivots, and a
// generous pivot budget backstops termination outright. The basis survives in
// the Workspace between solves, so a warm solve on a drifted instance
// re-prices the carried tree and reaches the new optimum in a handful of
// pivots instead of re-routing everything.

import (
	"errors"
	"fmt"
	"math"
)

// Arc states of the simplex basis.
const (
	spxLower int8 = iota // nonbasic at flow 0
	spxTree              // basic (on the spanning tree)
	spxUpper             // nonbasic at flow = capacity
)

// spxCandMax bounds the pricing candidate list: a refill scan stops after
// collecting this many violating arcs, and subsequent pivots re-price only
// the list until it runs dry.
const spxCandMax = 64

// spxBasis is the spanning-tree basis carried in a Workspace across simplex
// solves. Arcs 0..m-1 mirror the graph's forward edges (arc a ↔ edge 2a);
// arcs m..m+n-1 are the artificial root arcs (arc m+v connects real node v
// and the artificial root, node index n in basis coordinates), which give
// every instance a trivially strongly feasible starting tree and turn
// infeasibility into big-M artificial flow at the optimum.
type spxBasis struct {
	tail, head []int32 // arc endpoints; int32 halves the largest per-arc arrays
	cap        []float64
	cost       []float64
	flow       []float64
	state      []int8

	parent []int // node -> parent in the tree (-1 at the root)
	pred   []int // node -> the tree arc joining it to its parent
	depth  []int
	thread []int // tree preorder from the last retree; thread[0] is the root
	pot    []float64

	// Per-retree scratch: first-child/next-sibling lists and the DFS stack.
	childHead, childNext []int
	stack                []int
	// Per-pivot scratch: the pivot cycle's arcs, their orientation signs, and
	// the child-side node of each tree arc (-1 for the entering arc).
	cyc     []int
	cycSign []float64
	cycNode []int
	cand    []int // pricing candidate list

	nextScan int // round-robin pricing cursor over the arc array
	n        int // node count including the artificial root
	m        int // real (non-artificial) arc count
	s, t     int
	have     bool
}

// spxRun is the per-solve pivot-loop state.
type spxRun struct {
	b      *spxBasis
	pivots int
	degen  int  // consecutive degenerate pivots since the last real one
	bland  bool // Bland's-rule mode (anti-stalling fallback)
}

// MinCostFlow sends exactly want units from s to t at minimum cost using the
// primal network simplex. Flows are written back onto the graph's edges,
// where Flow(id) reads them, and the solved basis is left in the workspace.
//
// When the workspace carries a basis from a previous solve over the same
// topology and terminals, the solve warm-starts from it (Result.WarmStarted):
// nonbasic arcs snap back to their bounds, tree-arc flows are recomputed from
// the new supplies by a children-first sweep of the thread order, potentials
// are re-priced, and pivoting resumes from there. When the carried tree
// cannot carry the new supplies within capacity, the basis is re-crashed as
// an artificial star seeded from the carried nonbasic bounds — still a warm
// start, but counted as a rebuild (Result.BasisRebuilt). A carried basis of a
// different topology or terminals, or a warm pivot-budget blow-up, falls back
// to the cold all-at-lower build. With no carried basis — a nil or fresh ws,
// or one after ResetBasis — the solve is cold and deterministic regardless of
// workspace history.
//
// If want cannot be fully routed, ErrDisconnected is returned. A cold solve
// then still carries the routable part at minimum cost; a warm one may leave
// flows that do not conserve at interior nodes. want must be finite (there is
// no max-flow mode), and graphs containing a negative-cost cycle are solved
// to the true bounded optimum (the cycle saturates) rather than rejected.
func (g *Graph) MinCostFlow(s, t int, want float64, ws *Workspace) (Result, error) {
	if s < 0 || s >= g.n || t < 0 || t >= g.n {
		return Result{}, fmt.Errorf("flow: source %d or sink %d out of range", s, t)
	}
	if s == t {
		return Result{}, fmt.Errorf("flow: source equals sink (%d)", s)
	}
	if math.IsNaN(want) || want < 0 {
		return Result{}, fmt.Errorf("flow: invalid flow value %v", want)
	}
	if math.IsInf(want, 1) {
		return Result{}, errors.New("flow: simplex solves a fixed flow value, not max-flow")
	}
	if g.n >= math.MaxInt32 {
		return Result{}, fmt.Errorf("flow: simplex supports fewer than %d nodes, graph has %d", math.MaxInt32, g.n)
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	b := &ws.spx
	r := spxRun{b: b}
	var res Result

	solved := false
	if b.have && b.n == g.n+1 && b.m == len(g.edges)/2 &&
		b.s == s && b.t == t && b.sameTopology(g) {
		b.refreshArcs(g)
		// Cheapest restart first: keep the whole tree if it can carry the new
		// supplies. When it cannot (bursty slots routinely push a tree arc past
		// its capacity), crash a fresh star tree seeded from the carried
		// nonbasic bounds instead of giving the warm start up entirely.
		if !b.warmRestore(s, t, want) {
			b.buildSeeded(want)
			res.BasisRebuilt = true
		}
		res.WarmStarted = true
		err := r.optimize(b.pivotBudget())
		switch {
		case err == nil:
			solved = true
		case errors.Is(err, ErrPivotLimit):
			// The warm basis stalled; rebuild cold, which restores the
			// termination guarantee.
			res.WarmStarted = false
		default:
			b.have = false
			res.Pivots = r.pivots
			return res, err
		}
	}
	if !solved {
		res.BasisRebuilt = true
		b.build(g, s, t, want)
		r.degen, r.bland = 0, false
		if err := r.optimize(r.pivots + b.pivotBudget()); err != nil {
			b.have = false
			res.Pivots = r.pivots
			return res, err
		}
	}
	res.Pivots = r.pivots

	// Lift the basis flows back onto the graph edges and price the real arcs.
	var cost float64
	for a := 0; a < b.m; a++ {
		f := b.flow[a]
		g.edges[2*a].flow = f
		g.edges[2*a+1].flow = -f
		cost += f * b.cost[a]
	}
	res.Cost = cost
	// Flow delivered to t is want minus whatever the big-M arc into t still
	// carries; any positive remainder means the instance is infeasible.
	res.Flow = want - b.flow[b.m+t]
	b.have = true
	if res.Flow < want-1e-6 {
		return res, ErrDisconnected
	}
	// A cold build points every other artificial arc at the root, so t's arc
	// alone tells. A warm start orients each by the carried imbalance at its
	// node, and the shortfall can then sit on any of them (for example
	// feeding an interior node from the root while t is fully served).
	if res.WarmStarted {
		for a := b.m; a < b.numArcs(); a++ {
			if b.flow[a] > 1e-6 {
				return res, ErrDisconnected
			}
		}
	}
	return res, nil
}

// pivotBudget is the termination backstop: far above any observed pivot count
// (cold solves take O(m) pivots in practice) but finite, so a pathological
// instance surfaces as ErrPivotLimit instead of a hang.
func (b *spxBasis) pivotBudget() int {
	return 32*(b.m+b.n) + 1024
}

// numArcs is the total arc count, real plus artificial.
func (b *spxBasis) numArcs() int { return b.m + b.n - 1 }

// ensure sizes the basis arrays for n nodes (including the root) and na arcs.
func (b *spxBasis) ensure(n, na int) {
	if cap(b.tail) < na {
		b.tail = make([]int32, na)
		b.head = make([]int32, na)
		b.cap = make([]float64, na)
		b.cost = make([]float64, na)
		b.flow = make([]float64, na)
		b.state = make([]int8, na)
	}
	b.tail, b.head = b.tail[:na], b.head[:na]
	b.cap, b.cost, b.flow = b.cap[:na], b.cost[:na], b.flow[:na]
	b.state = b.state[:na]
	if cap(b.parent) < n {
		b.parent = make([]int, n)
		b.pred = make([]int, n)
		b.depth = make([]int, n)
		b.thread = make([]int, n)
		b.pot = make([]float64, n)
		b.childHead = make([]int, n)
		b.childNext = make([]int, n)
		b.stack = make([]int, 0, n)
		b.cyc = make([]int, 0, n+1)
		b.cycSign = make([]float64, 0, n+1)
		b.cycNode = make([]int, 0, n+1)
		b.cand = make([]int, 0, spxCandMax)
	}
	b.parent, b.pred = b.parent[:n], b.pred[:n]
	b.depth, b.thread, b.pot = b.depth[:n], b.thread[:n], b.pot[:n]
	b.childHead, b.childNext = b.childHead[:n], b.childNext[:n]
}

// bigM returns the artificial-arc cost: strictly above any simple path's
// total real cost, so the optimum uses artificial capacity only when the
// instance is genuinely infeasible.
func (b *spxBasis) bigM() float64 {
	maxC := 0.0
	for a := 0; a < b.m; a++ {
		if c := math.Abs(b.cost[a]); c > maxC {
			maxC = c
		}
	}
	return (maxC + 1) * float64(b.n)
}

// build constructs the initial artificial basis: every real arc nonbasic at
// its lower bound, every node hung off the artificial root by a big-M arc
// carrying its supply imbalance — a strongly feasible tree by construction
// (zero-flow artificial arcs all point toward the root).
func (b *spxBasis) build(g *Graph, s, t int, want float64) {
	n := g.n + 1
	m := len(g.edges) / 2
	b.n, b.m, b.s, b.t = n, m, s, t
	b.ensure(n, m+g.n)
	for a := 0; a < m; a++ {
		b.tail[a] = int32(g.edges[2*a+1].to)
		b.head[a] = int32(g.edges[2*a].to)
		b.cap[a] = g.edges[2*a].cap
		b.cost[a] = g.edges[2*a].cost
		b.flow[a] = 0
		b.state[a] = spxLower
	}
	bigM := b.bigM()
	root := n - 1
	for v := 0; v < g.n; v++ {
		a := m + v
		sup := 0.0
		if v == s {
			sup = want
		} else if v == t {
			sup = -want
		}
		if sup >= 0 {
			b.tail[a], b.head[a] = int32(v), int32(root)
		} else {
			b.tail[a], b.head[a] = int32(root), int32(v)
		}
		b.cap[a] = math.Inf(1)
		b.cost[a] = bigM
		b.flow[a] = math.Abs(sup)
		b.state[a] = spxTree
		b.parent[v] = root
		b.pred[v] = a
	}
	b.parent[root], b.pred[root] = -1, -1
	b.nextScan = 0
	b.cand = b.cand[:0]
	b.retree()
}

// buildSeeded crashes a warm starting basis when the carried tree cannot
// carry the new supplies: the tree is rebuilt as the artificial star (every
// node hung off the root, exactly as in build), but each real arc keeps a
// nonbasic bound seeded from the carried basis — formerly nonbasic arcs stay
// at their bound, formerly basic arcs snap to the bound nearest their carried
// flow. The artificial arcs absorb whatever imbalance the seeded bounds leave
// at each node, oriented by its sign, so the star is strongly feasible for
// any drift. Most of the optimum lives in the bound partition, so
// re-optimising from here takes far fewer pivots than the all-at-lower cold
// start. Caller must have verified sameTopology and called refreshArcs.
func (b *spxBasis) buildSeeded(want float64) {
	n := b.n
	root := n - 1
	excess := b.pot // scratch; retree below rebuilds potentials
	for v := 0; v < n; v++ {
		excess[v] = 0
	}
	excess[b.s] += want
	excess[b.t] -= want
	for a := 0; a < b.m; a++ {
		st := b.state[a]
		if st == spxTree {
			st = spxLower
			if !math.IsInf(b.cap[a], 1) && b.flow[a] > b.cap[a]/2 {
				st = spxUpper
			}
		} else if st == spxUpper && math.IsInf(b.cap[a], 1) {
			st = spxLower
		}
		b.state[a] = st
		if st == spxUpper {
			f := b.cap[a]
			b.flow[a] = f
			excess[b.tail[a]] -= f
			excess[b.head[a]] += f
		} else {
			b.flow[a] = 0
		}
	}
	for v := 0; v < n-1; v++ {
		a := b.m + v
		e := excess[v]
		if e >= 0 {
			b.tail[a], b.head[a] = int32(v), int32(root)
		} else {
			b.tail[a], b.head[a] = int32(root), int32(v)
		}
		b.cap[a] = math.Inf(1)
		b.flow[a] = math.Abs(e)
		b.state[a] = spxTree
		b.parent[v] = root
		b.pred[v] = a
	}
	b.parent[root], b.pred[root] = -1, -1
	b.nextScan = 0
	b.cand = b.cand[:0]
	b.retree()
}

// sameTopology reports whether the carried basis was built over a graph with
// exactly these arc endpoints (capacities and costs may differ).
func (b *spxBasis) sameTopology(g *Graph) bool {
	for a := 0; a < b.m; a++ {
		if int(b.tail[a]) != g.edges[2*a+1].to || int(b.head[a]) != g.edges[2*a].to {
			return false
		}
	}
	return true
}

// refreshArcs re-reads capacities and costs from the graph into the carried
// basis (the warm path's per-slot drift) and re-prices the artificial arcs.
func (b *spxBasis) refreshArcs(g *Graph) {
	for a := 0; a < b.m; a++ {
		b.cap[a] = g.edges[2*a].cap
		b.cost[a] = g.edges[2*a].cost
	}
	bigM := b.bigM()
	for a := b.m; a < b.numArcs(); a++ {
		b.cost[a] = bigM
	}
}

// warmRestore recomputes a basic solution for the carried tree under new
// supplies and bounds: nonbasic arcs snap to their bound, then tree-arc flows
// are solved bottom-up (children before parents, i.e. reverse thread order)
// from node imbalances. Reports false — caller rebuilds cold — when a tree
// arc would have to carry flow outside [0, cap] or an upper-bounded arc lost
// its finite capacity.
func (b *spxBasis) warmRestore(s, t int, want float64) bool {
	n := b.n
	excess := b.pot // reuse: retree below rebuilds potentials from scratch
	for v := 0; v < n; v++ {
		excess[v] = 0
	}
	excess[s] += want
	excess[t] -= want
	for a := 0; a < b.numArcs(); a++ {
		switch b.state[a] {
		case spxLower:
			b.flow[a] = 0
		case spxUpper:
			if math.IsInf(b.cap[a], 1) {
				return false
			}
			f := b.cap[a]
			b.flow[a] = f
			excess[b.tail[a]] -= f
			excess[b.head[a]] += f
		}
	}
	tol := 1e-7 * (1 + math.Abs(want))
	for i := n - 1; i >= 1; i-- {
		v := b.thread[i]
		a := b.pred[v]
		e := excess[v]
		f := e
		if int(b.tail[a]) != v {
			f = -e
		}
		if f < -tol || f > b.cap[a]+tol {
			return false
		}
		if f < 0 {
			f = 0
		} else if f > b.cap[a] {
			f = b.cap[a]
		}
		b.flow[a] = f
		excess[b.parent[v]] += e
	}
	b.nextScan = 0
	b.cand = b.cand[:0]
	b.retree()
	return true
}

// retree rebuilds the derived tree indices — thread (preorder), depth, and
// dual potentials — from the parent/pred arrays by one DFS from the root.
// Every tree arc has zero reduced cost by construction of pot.
func (b *spxBasis) retree() {
	n := b.n
	root := n - 1
	for v := 0; v < n; v++ {
		b.childHead[v] = -1
	}
	for v := 0; v < n; v++ {
		if v == root {
			continue
		}
		p := b.parent[v]
		b.childNext[v] = b.childHead[p]
		b.childHead[p] = v
	}
	b.pot[root] = 0
	b.depth[root] = 0
	st := b.stack[:0]
	st = append(st, root)
	idx := 0
	for len(st) > 0 {
		v := st[len(st)-1]
		st = st[:len(st)-1]
		b.thread[idx] = v
		idx++
		for c := b.childHead[v]; c >= 0; c = b.childNext[c] {
			a := b.pred[c]
			if int(b.head[a]) == c {
				b.pot[c] = b.pot[v] + b.cost[a]
			} else {
				b.pot[c] = b.pot[v] - b.cost[a]
			}
			b.depth[c] = b.depth[v] + 1
			st = append(st, c)
		}
	}
	b.stack = st[:0]
}

// violation is the optimality violation of nonbasic arc a: how far its
// reduced cost strays on the profitable side of zero (0 when the arc cannot
// improve the solution).
func (b *spxBasis) violation(a int) float64 {
	rc := b.cost[a] + b.pot[b.tail[a]] - b.pot[b.head[a]]
	switch b.state[a] {
	case spxLower:
		if rc < -_eps {
			return -rc
		}
	case spxUpper:
		if rc > _eps {
			return rc
		}
	}
	return 0
}

// optimize runs pivots until no arc violates optimality or the budget runs
// out.
func (r *spxRun) optimize(maxPivots int) error {
	for {
		a := r.pickEntering()
		if a < 0 {
			return nil
		}
		if r.pivots >= maxPivots {
			return ErrPivotLimit
		}
		r.pivots++
		if err := r.pivot(a); err != nil {
			return err
		}
	}
}

// pickEntering chooses the entering arc. Default: candidate-list pricing —
// re-filter the carried list and take its worst violator; when the list runs
// dry, refill it by a round-robin scan from nextScan, collecting up to
// spxCandMax violating arcs. In Bland mode (after a run of consecutive
// degenerate pivots) it degrades to the smallest violating index, which
// cannot stall. Returns -1 at optimality.
func (r *spxRun) pickEntering() int {
	b := r.b
	na := b.numArcs()
	if r.bland {
		for a := 0; a < na; a++ {
			if b.violation(a) > 0 {
				return a
			}
		}
		return -1
	}
	best, bestV := -1, 0.0
	keep := b.cand[:0]
	for _, a := range b.cand {
		if v := b.violation(a); v > 0 {
			keep = append(keep, a)
			if v > bestV {
				best, bestV = a, v
			}
		}
	}
	b.cand = keep
	if best >= 0 {
		return best
	}
	start := b.nextScan
	for i := 0; i < na; i++ {
		a := start + i
		if a >= na {
			a -= na
		}
		if v := b.violation(a); v > 0 {
			b.cand = append(b.cand, a)
			if v > bestV {
				best, bestV = a, v
			}
			if len(b.cand) == spxCandMax {
				b.nextScan = a + 1
				if b.nextScan == na {
					b.nextScan = 0
				}
				return best
			}
		}
	}
	return best
}

// pivot performs one basis exchange around entering arc eArc: find the apex
// (deepest common ancestor of the entering arc's endpoints), walk the pivot
// cycle in its orientation starting at the apex, push the minimum residual
// around it, and swap the entering arc for the LAST blocking arc in that
// traversal — the strongly-feasible-tree leaving rule, which guarantees
// degenerate pivots strictly advance and cannot cycle when the tree is
// strongly feasible.
func (r *spxRun) pivot(eArc int) error {
	b := r.b
	dir := 1.0
	if b.state[eArc] == spxUpper {
		dir = -1
	}
	u, v := int(b.tail[eArc]), int(b.head[eArc])
	first, second := u, v // flow change runs first -> second
	if dir < 0 {
		first, second = v, u
	}
	x, y := first, second
	for b.depth[x] > b.depth[y] {
		x = b.parent[x]
	}
	for b.depth[y] > b.depth[x] {
		y = b.parent[y]
	}
	for x != y {
		x = b.parent[x]
		y = b.parent[y]
	}
	join := x

	// Cycle arcs in orientation order from the apex:
	// join -> (down to first) -> entering -> (second up to join).
	cyc, cnode := b.cyc[:0], b.cycNode[:0]
	for w := first; w != join; w = b.parent[w] {
		cyc = append(cyc, b.pred[w])
		cnode = append(cnode, w)
	}
	for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
		cyc[i], cyc[j] = cyc[j], cyc[i]
		cnode[i], cnode[j] = cnode[j], cnode[i]
	}
	sgn := b.cycSign[:0]
	for i, a := range cyc {
		// Traversal here runs parent -> child; an arc oriented the same way
		// (head at the child) gains flow.
		if int(b.head[a]) == cnode[i] {
			sgn = append(sgn, 1)
		} else {
			sgn = append(sgn, -1)
		}
	}
	cyc = append(cyc, eArc)
	sgn = append(sgn, dir)
	cnode = append(cnode, -1)
	for w := second; w != join; w = b.parent[w] {
		a := b.pred[w]
		cyc = append(cyc, a)
		cnode = append(cnode, w)
		// Traversal runs child -> parent; an arc with its tail at the child
		// gains flow.
		if int(b.tail[a]) == w {
			sgn = append(sgn, 1)
		} else {
			sgn = append(sgn, -1)
		}
	}
	b.cyc, b.cycSign, b.cycNode = cyc, sgn, cnode

	// Minimum-ratio leaving selection, keeping the LAST arc that attains the
	// minimum (ties broken toward later cycle positions = strong feasibility).
	delta := math.Inf(1)
	leave := -1
	for i, a := range cyc {
		var residual float64
		if sgn[i] > 0 {
			residual = b.cap[a] - b.flow[a]
		} else {
			residual = b.flow[a]
		}
		if residual < 0 {
			residual = 0
		}
		if residual <= delta {
			delta = residual
			leave = i
		}
	}
	if math.IsInf(delta, 1) {
		b.have = false
		return errors.New("flow: unbounded (negative-cost cycle with unlimited capacity)")
	}
	if delta > 0 {
		for i, a := range cyc {
			b.flow[a] += sgn[i] * delta
		}
		r.degen = 0
		r.bland = false
	} else {
		r.degen++
		if r.degen > 2*b.n+16 {
			r.bland = true
		}
	}

	lArc := cyc[leave]
	if lArc == eArc {
		// The entering arc blocks itself: a bound flip, no tree change.
		if dir > 0 {
			b.state[eArc] = spxUpper
			b.flow[eArc] = b.cap[eArc]
		} else {
			b.state[eArc] = spxLower
			b.flow[eArc] = 0
		}
		return nil
	}
	// The leaving arc exits at the bound it blocked on; clamp exactly so
	// float drift cannot accumulate across pivots.
	if sgn[leave] > 0 {
		b.state[lArc] = spxUpper
		b.flow[lArc] = b.cap[lArc]
	} else {
		b.state[lArc] = spxLower
		b.flow[lArc] = 0
	}
	b.state[eArc] = spxTree

	// Tree surgery: removing the leaving arc cuts off the subtree under its
	// child-side node lc; re-root that subtree at the entering arc's endpoint
	// inside it by reversing the parent chain, then hang it off the entering
	// arc.
	lc := cnode[leave]
	in, out := u, v
	inside := false
	for w := u; w >= 0; w = b.parent[w] {
		if w == lc {
			inside = true
			break
		}
	}
	if !inside {
		in, out = v, u
	}
	pn, pa := out, eArc
	for w := in; ; {
		oldParent, oldArc := b.parent[w], b.pred[w]
		b.parent[w], b.pred[w] = pn, pa
		if w == lc {
			break
		}
		pn, pa = w, oldArc
		w = oldParent
	}
	b.retree()
	return nil
}
