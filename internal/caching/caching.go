// Package caching defines the per-slot joint service-caching and
// task-offloading problem of Section III-E and its ILP formulation (Eq. 3-7):
//
//	min (1/|R|) ( sum_l sum_i x_li * rho_l * theta_i  +  sum_k sum_i y_ki * d_ins_ik )
//	s.t. sum_i x_li = 1                       for all requests l      (4)
//	     sum_l x_li * rho_l * C_unit <= C_i   for all stations i      (5)
//	     y_ki >= x_li                         for l with service k    (6)
//	     x, y binary                                                  (7)
//
// Problem.Solve is the one way into the per-slot solve. It lowers the LP
// relaxation to either the exact simplex solver in internal/lp (small
// instances; also the test oracle) or a min-cost-flow reformulation solved by
// the network simplex in internal/flow (experiment scale), and degrades to a
// greedy assignment when both fail. The package also extracts the candidate
// base-station sets of Eq. (9) and evaluates integral assignments.
//
// Beyond the paper's objective, an optional known access-latency term
// lat(reg(l), i) can be added to the per-assignment cost; it models the
// wired-path latency from the user's registered station to the serving
// station and is what surfaces bottleneck links in real topologies (Fig. 5).
package caching

import (
	"errors"
	"fmt"
	"math"

	"github.com/mecsim/l4e/internal/flow"
	"github.com/mecsim/l4e/internal/lp"
)

// Solver failure modes, re-exported so policies can branch with errors.Is
// without importing internal/lp. The wrapped errors of a failed ladder rung
// match these sentinels.
var (
	// ErrInfeasible is lp.ErrInfeasible: the relaxation has no feasible point.
	ErrInfeasible = lp.ErrInfeasible
	// ErrUnbounded is lp.ErrUnbounded (a lowering bug; never expected here).
	ErrUnbounded = lp.ErrUnbounded
	// ErrIterLimit is lp.ErrIterLimit: the simplex exhausted its pivot budget
	// (either the default or Problem.SolveBudget) before reaching optimality.
	ErrIterLimit = lp.ErrIterLimit
)

// RequestSpec is the per-slot view of one request: its service, its data
// volume rho_l(t) for this slot, and its registered station.
type RequestSpec struct {
	ID           int
	Service      int
	Volume       float64
	RegisteredBS int
}

// Problem is one slot's caching/offloading instance.
type Problem struct {
	// NumStations is |BS|.
	NumStations int
	// NumServices is |S|.
	NumServices int
	// Requests lists the slot's requests with their volumes.
	Requests []RequestSpec
	// CapacityMHz is C(bs_i) per station.
	CapacityMHz []float64
	// CUnit is the compute (MHz) consumed per unit of data.
	CUnit float64
	// UnitDelayMS is the unit-data processing delay used as theta_i in the
	// objective (the learner's current estimate, or the truth for oracles).
	UnitDelayMS []float64
	// InstDelayMS[i][k] is the instantiation delay d^ins_{i,k}.
	InstDelayMS [][]float64
	// AccessLatencyMS[l][i] is the known extra latency of serving request l
	// at station i (nil means zero everywhere).
	AccessLatencyMS [][]float64
	// SolveBudget caps the simplex pivots the exact backend may spend on this
	// slot (0 = the solver's default). Exhausting it surfaces as ErrIterLimit,
	// which the degradation ladder (Solve) absorbs by falling back
	// to the flow and greedy rungs instead of aborting the slot.
	SolveBudget int
}

// Validate checks dimension consistency.
func (p *Problem) Validate() error {
	switch {
	case p.NumStations <= 0:
		return fmt.Errorf("caching: NumStations = %d", p.NumStations)
	case p.NumServices <= 0:
		return fmt.Errorf("caching: NumServices = %d", p.NumServices)
	case len(p.Requests) == 0:
		return fmt.Errorf("caching: no requests")
	case len(p.CapacityMHz) != p.NumStations:
		return fmt.Errorf("caching: %d capacities for %d stations", len(p.CapacityMHz), p.NumStations)
	case len(p.UnitDelayMS) != p.NumStations:
		return fmt.Errorf("caching: %d unit delays for %d stations", len(p.UnitDelayMS), p.NumStations)
	case len(p.InstDelayMS) != p.NumStations:
		return fmt.Errorf("caching: %d inst-delay rows for %d stations", len(p.InstDelayMS), p.NumStations)
	case p.CUnit <= 0:
		return fmt.Errorf("caching: CUnit = %v", p.CUnit)
	case p.SolveBudget < 0:
		return fmt.Errorf("caching: SolveBudget = %d", p.SolveBudget)
	}
	for i, row := range p.InstDelayMS {
		if len(row) != p.NumServices {
			return fmt.Errorf("caching: inst-delay row %d has %d services, want %d", i, len(row), p.NumServices)
		}
	}
	if p.AccessLatencyMS != nil && len(p.AccessLatencyMS) != len(p.Requests) {
		return fmt.Errorf("caching: %d access-latency rows for %d requests", len(p.AccessLatencyMS), len(p.Requests))
	}
	for l, r := range p.Requests {
		if r.Service < 0 || r.Service >= p.NumServices {
			return fmt.Errorf("caching: request %d has service %d of %d", l, r.Service, p.NumServices)
		}
		if r.Volume <= 0 || math.IsNaN(r.Volume) {
			return fmt.Errorf("caching: request %d has volume %v", l, r.Volume)
		}
	}
	return nil
}

// accessLat returns lat(l, i), zero when no matrix is configured.
func (p *Problem) accessLat(l, i int) float64 {
	if p.AccessLatencyMS == nil {
		return 0
	}
	return p.AccessLatencyMS[l][i]
}

// AssignCost is the per-assignment objective contribution of serving request
// l at station i under the problem's theta estimates (excluding
// instantiation, which is charged per cached instance).
func (p *Problem) AssignCost(l, i int) float64 {
	return p.Requests[l].Volume*p.UnitDelayMS[i] + p.accessLat(l, i)
}

// SolverKind identifies which relaxation backend produced a Fractional.
type SolverKind string

// Relaxation backends.
const (
	// SolverSimplex is the exact dense two-phase simplex (internal/lp) —
	// the small-instance path and correctness oracle.
	SolverSimplex SolverKind = "simplex"
	// SolverFlow is the min-cost-flow reformulation (internal/flow) — the
	// fast path at experiment scale.
	SolverFlow SolverKind = "flow"
	// SolverGreedy is the last rung of the degradation ladder: a greedy
	// one-hot assignment that always produces a solution, used only after the
	// relaxation backends fail.
	SolverGreedy SolverKind = "greedy"
)

// SolveStats records the effort the relaxation backend spent on one solve.
// It exists for observability: the learning policies surface these numbers
// per slot so solver behaviour (fast-path dispatch, iteration blow-ups) is
// visible in traces instead of buried in wall-clock totals.
type SolveStats struct {
	// Solver is the backend that produced the solution.
	Solver SolverKind
	// Iterations is the backend's unit of work: simplex pivots (both
	// phases on the exact backend, basis exchanges on the flow backend).
	Iterations int
	// Phase1Iterations is the simplex feasibility pivots (0 for flow).
	Phase1Iterations int
	// WorkspaceReused reports whether the solve rewrote a cached problem or
	// graph in place (same shape as the previous solve on this workspace)
	// instead of rebuilding it.
	WorkspaceReused bool
	// WarmStarted reports the flow backend re-optimised the spanning-tree
	// basis carried from the workspace's previous solve instead of starting
	// from scratch. Warm results agree with cold solves within the solver
	// tolerance, not bit-for-bit.
	WarmStarted bool
	// WarmFallback reports a flow warm start was abandoned (the carried basis
	// did not fit the graph, or it blew its pivot budget) and this result
	// came from the cold rebuild that replaced it.
	WarmFallback bool
	// BasisRebuilt reports the simplex solve built a fresh spanning-tree basis
	// instead of re-optimising the carried one (always true on cold solves;
	// true on a warm solve only when the warm attempt was abandoned).
	BasisRebuilt bool
	// Fallbacks counts the degradation-ladder rungs that failed before this
	// solve succeeded (0 = the primary backend solved it).
	Fallbacks int
	// IterLimited reports whether a failed rung hit ErrIterLimit (the solve
	// budget ran out) as opposed to infeasibility — distinguishable so callers
	// can tell "needs more budget" from "needs load shedding".
	IterLimited bool
}

// Fractional is a (possibly fractional) solution to the LP relaxation.
type Fractional struct {
	// X[l][i] is the fraction of request l served at station i.
	X [][]float64
	// Y[k][i] is the caching level of service k at station i.
	Y [][]float64
	// Objective is the LP objective value (average delay, ms).
	Objective float64
	// Stats describes the solve effort (which backend, how many iterations).
	Stats SolveStats
}

// Assignment is an integral solution: request l is served by station BS[l].
type Assignment struct {
	// BS[l] is the serving station of request l.
	BS []int
}

// Instances returns the set of cached (service, station) pairs implied by the
// assignment.
func (a *Assignment) Instances(p *Problem) map[[2]int]bool {
	out := make(map[[2]int]bool)
	for l, i := range a.BS {
		out[[2]int{p.Requests[l].Service, i}] = true
	}
	return out
}

// _exactVarLimit bounds the |R|*|BS| product for which the dense simplex is
// used; beyond it Solve starts on the flow reformulation. The dense
// tableau costs O((L+N+LN)^2) memory and cubic-ish pivoting time, so only
// small instances stay on the exact path in per-slot use.
const _exactVarLimit = 200

// _zeroCapOverload is the processor-sharing slowdown charged to load placed on
// a station with zero capacity (possible only via the shedding path when a
// fault has taken stations down). Finite by design: a blackout slot must yield
// a terrible delay, not an unusable NaN/Inf.
const _zeroCapOverload = 100

// Workspace carries solver state across per-slot solves so the hot decide
// path stops allocating: the lowered LP problem and simplex tableau (exact
// backend), the flow graph, its edge handles, and the network-simplex basis
// (flow backend), plus the X/Y result matrices. When consecutive solves share
// a shape — same request count, stations, and (for the exact path)
// per-request service pattern — the lowered instance reuses the previous
// one's storage (and, on the exact path, its LP structure), reported via
// SolveStats.WorkspaceReused.
//
// Every workspace also solves incrementally on the flow backend: a flow solve
// that follows a successful flow solve of the same shape re-optimises the
// spanning-tree basis carried from it (SolveStats.WarmStarted), which reaches
// the same optimal objective within the solver tolerance but, where the LP has
// several optima, may pick a different one. The exact backend always solves
// cold. A nil workspace, or a ResetWarm before each solve, gives the cold
// reference.
//
// A Workspace is not safe for concurrent use, and the Fractional returned by
// Solve aliases workspace memory: it is valid only until the next
// solve on the same workspace.
type Workspace struct {
	// Flow backend state.
	flowWS *flow.Workspace
	graph  *flow.Graph
	graphL int
	graphN int
	asgIDs []int // request -> station edge handles, flattened l*N+i

	// Exact (simplex) backend state.
	lpWS       *lp.Workspace
	lpProb     *lp.Problem
	lpL        int
	lpN        int
	lpK        int
	lpServices []int // per-request service pattern at build time

	// Result matrices, reused across solves.
	xRows [][]float64
	xBack []float64
	yRows [][]float64
	yBack []float64

	// warm reports the last solve was a successful flow solve, so its basis
	// may seed the next flow solve of the same shape.
	warm bool
}

// NewWorkspace returns an empty workspace; state builds up on first solve.
func NewWorkspace() *Workspace {
	return &Workspace{flowWS: flow.NewWorkspace(), graph: flow.NewGraph(0), lpWS: lp.NewWorkspace()}
}

// ResetWarm drops the network-simplex basis carried across slots: the next
// solve runs cold and warm state re-accumulates from there. This is the
// checkpoint barrier of the persistence layer: snapshots deliberately exclude
// solver workspaces, so a restored process starts cold at the checkpoint slot;
// resetting the live process at the same slot keeps the two solve histories
// identical.
func (ws *Workspace) ResetWarm() {
	ws.warm = false
	ws.flowWS.ResetBasis()
}

// matrix returns a rows x cols matrix carved out of one zeroed backing slice,
// reusing the workspace buffers when large enough.
func matrix(rows [][]float64, back []float64, r, c int) ([][]float64, []float64) {
	if cap(back) < r*c {
		back = make([]float64, r*c)
	} else {
		back = back[:r*c]
		for i := range back {
			back[i] = 0
		}
	}
	if cap(rows) < r {
		rows = make([][]float64, r)
	} else {
		rows = rows[:r]
	}
	for i := 0; i < r; i++ {
		rows[i] = back[i*c : (i+1)*c]
	}
	return rows, back
}

// result prepares the workspace-backed X/Y matrices for a solve.
func (ws *Workspace) result(L, N, K int) *Fractional {
	ws.xRows, ws.xBack = matrix(ws.xRows, ws.xBack, L, N)
	ws.yRows, ws.yBack = matrix(ws.yRows, ws.yBack, K, N)
	return &Fractional{X: ws.xRows, Y: ws.yRows}
}

// Solve is the per-slot solve: it solves the LP relaxation with a reusable
// workspace (nil allocates a throwaway one, shared by every rung of this
// call), dispatching on instance size, and when the chosen backend fails —
// iteration budget exhausted (ErrIterLimit), an infeasible slot (a fault
// zeroed too much capacity), numerical trouble — it descends the degradation
// ladder instead of failing:
//
//	LP-exact (simplex)  →  min-cost-flow  →  greedy one-hot assignment
//
// Instances with |R|*|BS| <= _exactVarLimit start on the exact simplex; larger
// ones start on the flow rung. The greedy rung always succeeds, so a nil error
// is guaranteed for any structurally valid problem; only Validate errors
// (programmer mistakes, not solver conditions) still propagate. The descent is
// recorded in Stats.Fallbacks and Stats.IterLimited so degraded slots are
// observable. Workspace reuse changes where the solver's buffers live, never
// the arithmetic: a cold solve is bit-identical to the fresh-allocation path.
func (p *Problem) Solve(ws *Workspace) (*Fractional, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	fallbacks, iterLimited := 0, false
	if len(p.Requests)*p.NumStations <= _exactVarLimit {
		frac, err := p.solveExact(ws)
		if err == nil {
			return frac, nil
		}
		// Only the exact rung has a pivot budget (SolveBudget) to exhaust.
		fallbacks, iterLimited = 1, errors.Is(err, ErrIterLimit)
	}
	// The flow rung is the primary backend at flow scale and the first
	// fallback below it.
	frac, err := p.solveFlow(ws)
	if err != nil {
		fallbacks++
		frac = p.solveGreedy(ws)
	}
	frac.Stats.Fallbacks = fallbacks
	frac.Stats.IterLimited = iterLimited
	return frac, nil
}

// solveExact is the exact rung: it lowers the relaxation of ILP (3)-(7) to
// internal/lp and lifts the solution back. It serves small instances and is
// the oracle against which solveFlow is validated.
func (p *Problem) solveExact(ws *Workspace) (*Fractional, error) {
	L, N, K := len(p.Requests), p.NumStations, p.NumServices
	ws.warm = false
	prob, reused, err := p.lowerLP(ws)
	if err != nil {
		return nil, err
	}
	sol, err := prob.SolveWS(ws.lpWS)
	if err != nil {
		return nil, fmt.Errorf("caching: LP relaxation: %w", err)
	}
	frac := ws.result(L, N, K)
	frac.Objective = sol.Objective
	frac.Stats = SolveStats{
		Solver:           SolverSimplex,
		Iterations:       sol.Iterations,
		Phase1Iterations: sol.Phase1Iterations,
		WorkspaceReused:  reused,
	}
	// Variable layout: x_li at l*N+i, y_ki at L*N + k*N + i.
	for l := 0; l < L; l++ {
		copy(frac.X[l], sol.X[l*N:(l+1)*N])
	}
	for k := 0; k < K; k++ {
		copy(frac.Y[k], sol.X[L*N+k*N:L*N+(k+1)*N])
	}
	return frac, nil
}

// lowerLP writes the LP relaxation of p into the workspace's lp.Problem. The
// structure — the x and y variables, rows (4) and (6), and the column pattern
// of the (5) rows — depends only on (L, N, K) and the per-request service
// pattern, so it is built only when that shape changes (reused reports it did
// not). The numbers — costs, the capacity coefficients of (5) and their RHS —
// are then written in place on every solve.
func (p *Problem) lowerLP(ws *Workspace) (prob *lp.Problem, reused bool, err error) {
	L, N, K := len(p.Requests), p.NumStations, p.NumServices
	// Variable layout: x_li at l*N+i, y_ki at L*N + k*N + i.
	xIdx := func(l, i int) int { return l*N + i }
	yIdx := func(k, i int) int { return L*N + k*N + i }

	reused = ws.lpProb != nil && ws.lpL == L && ws.lpN == N && ws.lpK == K
	for l := 0; reused && l < L; l++ {
		reused = ws.lpServices[l] == p.Requests[l].Service
	}
	if !reused {
		prob = lp.NewProblem()
		for j := 0; j < (L+K)*N; j++ {
			prob.AddBoundedVariable(0, 1)
		}
		cols := make([]int, L+N)
		coefs := make([]float64, L+N)
		// (4) each request fully assigned.
		for l := 0; l < L; l++ {
			for i := 0; i < N; i++ {
				cols[i] = xIdx(l, i)
				coefs[i] = 1
			}
			if err := prob.AddConstraint(cols[:N], coefs[:N], lp.EQ, 1); err != nil {
				return nil, false, err
			}
		}
		// (5) station capacities; coefficients and RHS are filled below.
		for i := 0; i < N; i++ {
			for l := 0; l < L; l++ {
				cols[l] = xIdx(l, i)
			}
			if err := prob.AddConstraint(cols[:L], coefs[:L], lp.LE, 0); err != nil {
				return nil, false, err
			}
		}
		// (6) y_ki >= x_li.
		for l := 0; l < L; l++ {
			k := p.Requests[l].Service
			for i := 0; i < N; i++ {
				if err := prob.AddConstraint(
					[]int{yIdx(k, i), xIdx(l, i)}, []float64{1, -1}, lp.GE, 0); err != nil {
					return nil, false, err
				}
			}
		}
		ws.lpProb = prob
		ws.lpL, ws.lpN, ws.lpK = L, N, K
		ws.lpServices = growIDs(ws.lpServices, L)
		for l := 0; l < L; l++ {
			ws.lpServices[l] = p.Requests[l].Service
		}
	}

	prob = ws.lpProb
	invR := 1.0 / float64(L)
	for l := 0; l < L; l++ {
		for i := 0; i < N; i++ {
			if err := prob.SetCost(xIdx(l, i), invR*p.AssignCost(l, i)); err != nil {
				return nil, false, err
			}
		}
	}
	for k := 0; k < K; k++ {
		for i := 0; i < N; i++ {
			if err := prob.SetCost(yIdx(k, i), invR*p.InstDelayMS[i][k]); err != nil {
				return nil, false, err
			}
		}
	}
	// (5) station capacities are rows [L, L+N): the coefficients carry the
	// slot's request volumes, the RHS its capacity.
	for i := 0; i < N; i++ {
		coefs := prob.ConstraintCoefs(L + i)
		for l := 0; l < L; l++ {
			coefs[l] = p.Requests[l].Volume * p.CUnit
		}
		if err := prob.SetConstraintRHS(L+i, p.CapacityMHz[i]); err != nil {
			return nil, false, err
		}
	}
	if err := prob.SetIterLimit(p.SolveBudget); err != nil {
		return nil, false, fmt.Errorf("caching: %w", err)
	}
	return prob, reused, nil
}

// solveFlow is the flow rung: a min-cost-flow relaxation of the instance.
// Requests supply rho_l * C_unit compute units, stations absorb up to C_i,
// and the per-unit edge cost folds in theta_i, access latency, and the
// instantiation delay amortised per request. The amortisation makes the flow
// objective an upper bound on the true LP objective; the x fractions it
// produces are what Algorithm 1 consumes (candidate sets + probabilities),
// and tests verify they track the exact LP closely on overlapping sizes.
//
// A slot after a successful flow solve of the same shape re-optimises the
// spanning-tree basis carried in the workspace, which handles its own
// staleness: an unusable restored tree falls back to a cold basis rebuild
// inside flow, reported via Stats.BasisRebuilt. Every other slot drops the
// basis first and solves cold.
func (p *Problem) solveFlow(ws *Workspace) (*Fractional, error) {
	L, N, K := len(p.Requests), p.NumStations, p.NumServices
	warmEligible := ws.warm && ws.graphL == L && ws.graphN == N
	ws.warm = false
	if !warmEligible {
		ws.flowWS.ResetBasis()
	}

	totalSupply, reused, err := p.lowerFlow(ws)
	if err != nil {
		return nil, err
	}
	flowRes, err := ws.graph.MinCostFlow(0, 1+L+N, totalSupply, ws.flowWS)
	if err != nil {
		return nil, fmt.Errorf("caching: flow relaxation (capacity %v < demand %v?): %w",
			sum(p.CapacityMHz), totalSupply, err)
	}

	frac := ws.result(L, N, K)
	frac.Stats = SolveStats{
		Solver:          SolverFlow,
		Iterations:      flowRes.Pivots,
		BasisRebuilt:    flowRes.BasisRebuilt,
		WorkspaceReused: reused,
		WarmStarted:     flowRes.WarmStarted,
		WarmFallback:    warmEligible && !flowRes.WarmStarted,
	}
	p.extractFlow(ws, frac)
	// Recompute the objective in LP terms (y = max x, not amortised).
	frac.Objective = p.fracObjective(frac)
	ws.warm = true
	return frac, nil
}

// lowerFlow writes the min-cost-flow lowering of p onto the workspace graph:
// source -> request edges carrying rho_l*C_unit, request -> station edges
// priced per compute unit, station -> sink edges bounded by capacity. The
// graph is emptied and re-wired on every solve; its edge storage is reused,
// so a same-shape solve (reused) allocates nothing and lays every edge out
// where the carried network-simplex basis expects it.
func (p *Problem) lowerFlow(ws *Workspace) (totalSupply float64, reused bool, err error) {
	L, N := len(p.Requests), p.NumStations
	src, sink := 0, 1+L+N
	reqNode := func(l int) int { return 1 + l }
	bsNode := func(i int) int { return 1 + L + i }

	reused = ws.graphL == L && ws.graphN == N
	g := ws.graph
	g.Reset(2 + L + N)
	g.Grow(L + L*N + N)
	ws.asgIDs = growIDs(ws.asgIDs, L*N)
	for l := 0; l < L; l++ {
		supply := p.Requests[l].Volume * p.CUnit
		totalSupply += supply
		if _, err := g.AddEdge(src, reqNode(l), supply, 0); err != nil {
			return 0, false, err
		}
		k := p.Requests[l].Service
		for i := 0; i < N; i++ {
			// Cost per compute unit so a full assignment costs
			// AssignCost + amortised instantiation.
			perUnit := (p.AssignCost(l, i) + p.InstDelayMS[i][k]) / supply
			id, err := g.AddEdge(reqNode(l), bsNode(i), supply, perUnit)
			if err != nil {
				return 0, false, err
			}
			ws.asgIDs[l*N+i] = id
		}
	}
	for i := 0; i < N; i++ {
		if _, err := g.AddEdge(bsNode(i), sink, p.CapacityMHz[i], 0); err != nil {
			return 0, false, err
		}
	}
	ws.graphL, ws.graphN = L, N
	return totalSupply, reused, nil
}

// extractFlow lifts the graph's carried flow into X (fraction of request l at
// station i) and Y (max over the service's X column) on a freshly zeroed frac.
func (p *Problem) extractFlow(ws *Workspace, frac *Fractional) {
	N := p.NumStations
	for l := range p.Requests {
		supply := p.Requests[l].Volume * p.CUnit
		k := p.Requests[l].Service
		for i := 0; i < N; i++ {
			x := ws.graph.Flow(ws.asgIDs[l*N+i]) / supply
			if x < 1e-12 {
				continue
			}
			frac.X[l][i] = x
			if x > frac.Y[k][i] {
				frac.Y[k][i] = x
			}
		}
	}
}

// solveGreedy is the ladder's greedy rung: the largest-first GreedyAssign
// written out as a one-hot "fractional". It cannot fail: every request gets a
// station, capacity violations are accepted and priced by Evaluate's overload
// model rather than rejected.
func (p *Problem) solveGreedy(ws *Workspace) *Fractional {
	// Greedy results are not LP optima, so they must never seed a warm
	// start on a later slot.
	ws.warm = false
	L, N, K := len(p.Requests), p.NumStations, p.NumServices
	frac := ws.result(L, N, K)
	a, _ := p.GreedyAssign(p.LargestFirst())
	for l, i := range a.BS {
		frac.X[l][i] = 1
		frac.Y[p.Requests[l].Service][i] = 1
	}
	frac.Objective = p.fracObjective(frac)
	frac.Stats = SolveStats{Solver: SolverGreedy}
	return frac
}

func growIDs(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func (p *Problem) fracObjective(f *Fractional) float64 {
	total := 0.0
	for l := range p.Requests {
		for i, x := range f.X[l] {
			if x > 0 {
				total += x * p.AssignCost(l, i)
			}
		}
	}
	for k := range f.Y {
		for i, y := range f.Y[k] {
			if y > 0 {
				total += y * p.InstDelayMS[i][k]
			}
		}
	}
	return total / float64(len(p.Requests))
}

// Candidates extracts the candidate station sets of Eq. (9):
// BS_l^candi = { bs_i : x*_li >= gamma }. When a request has no station above
// the threshold (possible with very fragmented fractional solutions), the
// station with the largest x*_li is used so the set is never empty.
func (p *Problem) Candidates(f *Fractional, gamma float64) [][]int {
	out := make([][]int, len(p.Requests))
	for l := range p.Requests {
		var set []int
		bestI, bestX := -1, -1.0
		for i, x := range f.X[l] {
			if x >= gamma {
				set = append(set, i)
			}
			if x > bestX {
				bestI, bestX = i, x
			}
		}
		if len(set) == 0 && bestI >= 0 {
			set = []int{bestI}
		}
		out[l] = set
	}
	return out
}

// Evaluate computes the realised average delay (objective 3) of an integral
// assignment under the ACTUAL unit delays d_i(t) of the slot: processing
// rho_l * d_i(t), plus access latency, plus instantiation per cached
// instance, averaged over requests. It also reports capacity feasibility.
//
// Stations loaded beyond capacity degrade: processing delay scales by the
// oversubscription ratio load/C(bs_i) (processor sharing — an overcommitted
// cloudlet slows every tenant proportionally). Assignments that respect
// constraint (5) under the TRUE volumes are unaffected; policies acting on
// under-predicted bursty demands pay the penalty, which is exactly the
// performance-degradation mechanism the paper's demand uncertainty is about.
func (p *Problem) Evaluate(a *Assignment, actualUnitDelayMS []float64) (avgDelayMS float64, feasible bool, err error) {
	avgDelayMS, feasible, _, err = p.EvaluateWarm(a, actualUnitDelayMS, nil)
	return avgDelayMS, feasible, err
}

// EvaluateWarm is Evaluate with warm-cache accounting: instantiation is
// charged only for (service, station) instances NOT already cached in
// prevInstances (instances surviving from the previous slot stay warm). Pass
// nil to charge every instance, which is the paper's literal objective (3).
// It returns the slot's instance set so the caller can thread it forward.
func (p *Problem) EvaluateWarm(a *Assignment, actualUnitDelayMS []float64, prevInstances map[[2]int]bool) (avgDelayMS float64, feasible bool, instances map[[2]int]bool, err error) {
	if len(a.BS) != len(p.Requests) {
		return 0, false, nil, fmt.Errorf("caching: assignment covers %d of %d requests", len(a.BS), len(p.Requests))
	}
	if len(actualUnitDelayMS) != p.NumStations {
		return 0, false, nil, fmt.Errorf("caching: %d actual delays for %d stations", len(actualUnitDelayMS), p.NumStations)
	}
	used := make([]float64, p.NumStations)
	for l, i := range a.BS {
		if i < 0 || i >= p.NumStations {
			return 0, false, nil, fmt.Errorf("caching: request %d assigned to invalid station %d", l, i)
		}
		used[i] += p.Requests[l].Volume * p.CUnit
	}
	overload := make([]float64, p.NumStations)
	for i := range overload {
		overload[i] = 1
		switch {
		case used[i] <= 0:
			// Unloaded stations carry no overload regardless of capacity.
		case p.CapacityMHz[i] <= 0:
			// Load shed onto a downed station (the degradation path's last
			// resort) is served, but at a punishing — finite — slowdown, so
			// delays stay comparable across policies instead of blowing up
			// to infinity or, worse, being served for free.
			overload[i] = _zeroCapOverload
		case used[i] > p.CapacityMHz[i]:
			overload[i] = used[i] / p.CapacityMHz[i]
		}
	}
	total := 0.0
	for l, i := range a.BS {
		total += p.Requests[l].Volume*actualUnitDelayMS[i]*overload[i] + p.accessLat(l, i)
	}
	// Instantiation, summed in deterministic (service, station) order so the
	// floating-point result is reproducible across runs.
	instances = a.Instances(p)
	for k := 0; k < p.NumServices; k++ {
		for i := 0; i < p.NumStations; i++ {
			ki := [2]int{k, i}
			if instances[ki] && !prevInstances[ki] {
				total += p.InstDelayMS[i][k]
			}
		}
	}
	feasible = true
	for i, u := range used {
		if u > p.CapacityMHz[i]+1e-6 {
			feasible = false
			break
		}
	}
	return total / float64(len(p.Requests)), feasible, instances, nil
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// LocalSearch improves an integral assignment by single-request moves: while
// some request can move to a station that lowers the estimated objective
// (processing + access latency + instantiation deltas) without violating
// capacity, apply the best such move. Returns the number of moves applied.
// This is the optional rounding-improvement step of the approximation
// pipeline; maxMoves bounds the work (0 means |R|*4).
func (p *Problem) LocalSearch(a *Assignment, maxMoves int) (int, error) {
	if len(a.BS) != len(p.Requests) {
		return 0, fmt.Errorf("caching: assignment covers %d of %d requests", len(a.BS), len(p.Requests))
	}
	if maxMoves <= 0 {
		maxMoves = 4 * len(p.Requests)
	}
	load := make([]float64, p.NumStations)
	// usage[k][i] counts requests of service k at station i (instantiation
	// is charged while the count is positive).
	usage := make(map[[2]int]int)
	for l, i := range a.BS {
		load[i] += p.Requests[l].Volume * p.CUnit
		usage[[2]int{p.Requests[l].Service, i}]++
	}

	moves := 0
	for moves < maxMoves {
		bestL, bestI, bestGain := -1, -1, 1e-9
		for l, cur := range a.BS {
			k := p.Requests[l].Service
			demand := p.Requests[l].Volume * p.CUnit
			curCost := p.AssignCost(l, cur)
			for i := 0; i < p.NumStations; i++ {
				if i == cur || load[i]+demand > p.CapacityMHz[i]+1e-9 {
					continue
				}
				gain := curCost - p.AssignCost(l, i)
				// Instantiation deltas: leaving may evict an instance,
				// arriving may create one.
				if usage[[2]int{k, cur}] == 1 {
					gain += p.InstDelayMS[cur][k]
				}
				if usage[[2]int{k, i}] == 0 {
					gain -= p.InstDelayMS[i][k]
				}
				if gain > bestGain {
					bestL, bestI, bestGain = l, i, gain
				}
			}
		}
		if bestL < 0 {
			break
		}
		k := p.Requests[bestL].Service
		cur := a.BS[bestL]
		demand := p.Requests[bestL].Volume * p.CUnit
		load[cur] -= demand
		load[bestI] += demand
		usage[[2]int{k, cur}]--
		usage[[2]int{k, bestI}]++
		a.BS[bestL] = bestI
		moves++
	}
	return moves, nil
}
