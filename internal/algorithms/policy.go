// Package algorithms implements the paper's service-caching policies:
//
//   - OLGD — Algorithm 1 (OL_GD): the online-learning policy that solves the
//     LP relaxation of ILP (3)-(7) with current delay estimates, extracts
//     candidate station sets (Eq. 9), and explores with probability
//     epsilon_t, observing played arms to learn theta_i.
//   - GreedyGD / PriGD — the Greedy_GD and Pri_GD baselines of Section VI.
//   - OLReg / OLGAN — Algorithm 2's demand-uncertain policies: OL_GD with
//     volumes supplied by an ARMA predictor (Eq. 27) or by the Info-RNN-GAN.
//   - Oracle — knows the slot's true d_i(t) and demands; the per-slot
//     reference for regret measurement.
//   - UCBOLGD / ThompsonOLGD — ablation variants replacing the epsilon_t
//     schedule with index policies.
//
// Policies are driven by internal/sim through the Policy interface: Decide
// receives the slot's problem WITHOUT the true unit delays (policies fill in
// their own estimates) and, for demand-uncertain policies, without the true
// volumes; Observe feeds back what the slot actually revealed.
package algorithms

import (
	"math/rand"
	"strconv"

	"github.com/mecsim/l4e/internal/bandit"
	"github.com/mecsim/l4e/internal/caching"
	"github.com/mecsim/l4e/internal/obs"
)

// SlotView is what a policy sees at the START of slot t.
type SlotView struct {
	// T is the slot index (0-based).
	T int
	// Problem carries stations, capacities, instantiation delays, access
	// latencies, and per-request volumes. When DemandsGiven is false the
	// volumes are the requests' BASIC demands only (the a-priori part);
	// the bursty component is hidden until Observe.
	Problem *caching.Problem
	// DemandsGiven reports whether Problem volumes are the true rho_l(t).
	DemandsGiven bool
	// Features[id] is the observable current-slot feature vector of request
	// id's hotspot (e.g. occupancy) — known at slot start. Indexed by
	// stable request ID over the FULL workload set.
	Features [][]float64
	// Clusters[id] is request id's latent cluster code (full set).
	Clusters []int
	// Degrade, when non-nil, is the slot's degradation channel: the simulator
	// allocates it, the policy records whatever graceful-degradation machinery
	// it engaged (solver fallbacks, shed requests), and the simulator folds the
	// report into Result counters instead of aborting the horizon.
	Degrade *DegradeReport
}

// DegradeReport is the per-slot record of engaged degradation machinery.
type DegradeReport struct {
	// FallbackSolves counts solver-ladder rungs that failed before the slot's
	// relaxation was solved (see caching.Problem.Solve).
	FallbackSolves int
	// IterLimited reports that a failed rung exhausted its pivot budget
	// (caching.ErrIterLimit) rather than proving infeasibility.
	IterLimited bool
	// RepairViolations counts requests that no station could absorb within
	// capacity and that were shed onto an overloaded station instead.
	RepairViolations int
	// Solver is the backend that finally produced the slot's relaxation
	// (empty for policies that never solve one).
	Solver caching.SolverKind
	// WarmSolve reports the slot's relaxation re-optimised the network-simplex
	// basis carried from the previous slot.
	WarmSolve bool
	// SkippedSolve reports the slot's relaxation was skipped outright
	// because its inputs were bit-identical to the previous slot's.
	SkippedSolve bool
}

// reportSolve folds a solve's ladder statistics into the slot's report.
func (v *SlotView) reportSolve(stats caching.SolveStats) {
	if v.Degrade == nil {
		return
	}
	v.Degrade.FallbackSolves += stats.Fallbacks
	if stats.IterLimited {
		v.Degrade.IterLimited = true
	}
	v.Degrade.Solver = stats.Solver
	v.Degrade.WarmSolve = stats.WarmStarted
	v.Degrade.SkippedSolve = stats.Skipped
}

// reportShed folds shed-request counts into the slot's report.
func (v *SlotView) reportShed(n int) {
	if v.Degrade == nil || n == 0 {
		return
	}
	v.Degrade.RepairViolations += n
}

// Observation is what a policy learns at the END of slot t.
type Observation struct {
	// T is the slot index.
	T int
	// PlayedDelays maps station ID -> observed d_i(t) for every station
	// that served at least one request this slot (playing the arm reveals
	// the sample, per Section IV-A).
	PlayedDelays map[int]float64
	// TrueVolumes is the realised rho_l(t) of every request, indexed by
	// stable request ID (the full workload set, not just R(t)).
	TrueVolumes []float64
	// Active[id] reports whether request id was in R(t) this slot (nil
	// means all requests were active). Volumes of inactive requests were
	// not observable and must not update predictors.
	Active []bool
}

// activeAt reports whether request id was active in the observation.
func (o *Observation) activeAt(id int) bool {
	return o.Active == nil || (id < len(o.Active) && o.Active[id])
}

// Policy is a per-slot service-caching and offloading decision maker.
type Policy interface {
	// Name returns the algorithm's display name (e.g. "OL_GD").
	Name() string
	// Decide returns the slot's assignment of requests to stations.
	Decide(view *SlotView) (*caching.Assignment, error)
	// Observe feeds back the slot's revealed information.
	Observe(obs *Observation)
}

// ObserverSetter is implemented by policies that accept an observability
// sink. The simulator injects its observer before the first slot; policies
// without internals worth tracing simply don't implement it (the simulator's
// own per-slot span still covers them).
type ObserverSetter interface {
	SetObserver(*obs.Observer)
}

// BanditState is a point-in-time view of a learning policy's exploration
// state, snapshotted once per slot by the flight recorder: Theorem 1's
// convergence claim is about exactly these trajectories (exploration decay,
// per-arm coverage, estimate drift), so they must be observable per slot, not
// reconstructed from aggregates.
type BanditState struct {
	// Epsilon is the exploration probability used by the most recent Decide;
	// HasEpsilon distinguishes a true 0 from "not an epsilon-greedy policy"
	// (index ablations explore implicitly through optimistic indices).
	Epsilon    float64
	HasEpsilon bool
	// Explored reports whether the most recent Decide took the exploration
	// branch (Algorithm 1 line 9).
	Explored bool
	// Pulls and Means are the learner's per-station observation counts and
	// mean delay estimates (copies; safe to retain).
	Pulls []int
	Means []float64
}

// BanditReporter is implemented by policies whose per-slot learner state the
// flight recorder should capture.
type BanditReporter interface {
	BanditState() *BanditState
}

// armLabel renders station i as a metric label value ("bs3").
func armLabel(i int) string { return "bs" + strconv.Itoa(i) }

// SolverCountBuckets are histogram bounds for solver iteration counts
// (simplex pivots, flow augmentations) — integer effort, not latency.
var SolverCountBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// recordSolve publishes one LP-relaxation solve's effort to the observer:
// which backend the size-dispatch picked (the min-cost-flow fast path vs the
// exact simplex) and how hard it worked. Alongside the legacy unlabeled
// totals it emits labeled series keyed by the emitting policy and the solver
// tier, so a telemetry scrape can tell whose solves degraded where.
func recordSolve(o *obs.Observer, policy string, stats caching.SolveStats) {
	if !o.Enabled() {
		return
	}
	o.Inc("lp.solves")
	o.Inc("lp.solves." + string(stats.Solver))
	o.IncL("lp.solves_by", obs.L("policy", policy, "solver", string(stats.Solver))...)
	o.ObserveWith("lp.iterations", SolverCountBuckets, float64(stats.Iterations))
	if stats.Phase1Iterations > 0 {
		o.ObserveWith("lp.phase1_iterations", SolverCountBuckets, float64(stats.Phase1Iterations))
	}
	// Workspace economics: in-place rewrites vs rebuilds of the lowered
	// instance, and flow solves that re-optimised the carried network-simplex
	// basis or abandoned it for a cold rebuild.
	if stats.WorkspaceReused {
		o.Inc("lp.workspace_reuses")
	} else {
		o.Inc("lp.workspace_builds")
	}
	if stats.WarmStarted {
		o.Inc("flow.warm_starts")
	}
	if stats.WarmFallback {
		o.Inc("flow.warm_fallbacks")
	}
	if stats.Skipped {
		o.IncL("solve.skips", obs.L("reason", "unchanged")...)
	}
	// Network-simplex engine economics: basis exchanges per solve and how
	// often the carried basis had to be rebuilt from scratch.
	if stats.Solver == caching.SolverFlow && stats.Iterations > 0 {
		o.Add("flow.pivots", int64(stats.Iterations))
		o.ObserveWith("flow.pivots_per_solve", SolverCountBuckets, float64(stats.Iterations))
	}
	if stats.BasisRebuilt {
		o.Inc("flow.basis_rebuilds")
	}
	if stats.Fallbacks > 0 {
		o.Add("solve.fallbacks", int64(stats.Fallbacks))
		o.AddL("solve.fallbacks_by", int64(stats.Fallbacks),
			obs.L("policy", policy, "tier", string(stats.Solver))...)
	}
}

// distinctStations returns the sorted set of stations used by an assignment —
// the bandit arms "played" this slot.
func distinctStations(a *caching.Assignment) []int {
	seen := map[int]bool{}
	var out []int
	for _, i := range a.BS {
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	// Insertion sort: the set is small (tens of stations).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// repairCapacity makes an assignment capacity-feasible by moving requests
// off overloaded stations onto the cheapest station with residual capacity
// (largest movers first). The paper's Algorithm 1 samples assignments from
// the fractional solution and can transiently violate (5); this repair step
// restores feasibility while staying close to the sampled solution.
//
// When a mover fits nowhere — total demand exceeds total capacity, e.g. under
// an injected outage — it is shed onto the least relatively loaded station
// that still has capacity (Evaluate prices the resulting overload) instead of
// failing the slot. The return counts those unrepairable sheds; 0 means the
// final assignment is capacity-feasible.
func repairCapacity(p *caching.Problem, a *caching.Assignment) int {
	load := make([]float64, p.NumStations)
	for l, i := range a.BS {
		load[i] += p.Requests[l].Volume * p.CUnit
	}
	// Collect requests on overloaded stations, largest volume first.
	type mover struct {
		l      int
		demand float64
	}
	var movers []mover
	over := func(i int) bool { return load[i] > p.CapacityMHz[i]+1e-9 }
	for l, i := range a.BS {
		if over(i) {
			movers = append(movers, mover{l: l, demand: p.Requests[l].Volume * p.CUnit})
		}
	}
	// Largest first empties overloaded stations fastest.
	for i := 0; i < len(movers); i++ {
		for j := i + 1; j < len(movers); j++ {
			if movers[j].demand > movers[i].demand {
				movers[i], movers[j] = movers[j], movers[i]
			}
		}
	}
	shed := 0
	for _, mv := range movers {
		cur := a.BS[mv.l]
		if !over(cur) {
			continue // station drained below capacity by earlier moves
		}
		best, bestCost := -1, 0.0
		for i := 0; i < p.NumStations; i++ {
			if i == cur || load[i]+mv.demand > p.CapacityMHz[i]+1e-9 {
				continue
			}
			c := p.AssignCost(mv.l, i)
			if best < 0 || c < bestCost {
				best, bestCost = i, c
			}
		}
		if best < 0 {
			shed++
			if tgt := p.ShedStation(load, mv.l); tgt != cur {
				load[cur] -= mv.demand
				load[tgt] += mv.demand
				a.BS[mv.l] = tgt
			}
			continue
		}
		load[cur] -= mv.demand
		load[best] += mv.demand
		a.BS[mv.l] = best
	}
	return shed
}

// solveRoundRepair is the deterministic LP step shared by Oracle and
// IndexOLGD: solve the relaxation down the degradation ladder under the
// problem's current theta, report the solve, round by argmax and repair
// capacity.
func solveRoundRepair(view *SlotView, ws *caching.Workspace, ob *obs.Observer, policy string) (*caching.Fractional, *caching.Assignment, error) {
	frac, err := view.Problem.Solve(ws)
	if err != nil {
		return nil, nil, err
	}
	view.reportSolve(frac.Stats)
	recordSolve(ob, policy, frac.Stats)
	a := frac.Round()
	view.reportShed(repairCapacity(view.Problem, a))
	return frac, a, nil
}

// observeArms is Algorithm 1 lines 10-11, shared by OLGD and IndexOLGD: fold
// each played station's measured delay into its arm, counting pulls and
// observations on o.
func observeArms(arms *bandit.Arms, o *obs.Observer, ob *Observation) {
	labeled := o.Enabled()
	for i, d := range ob.PlayedDelays {
		if arms.Observe(i, d) && labeled {
			o.IncL("bandit.pulls", obs.L("arm", armLabel(i))...)
		}
	}
	o.Add("bandit.observations", int64(len(ob.PlayedDelays)))
}

// sampleFromCandidates implements Algorithm 1 line 7: assign each request to
// a station in its candidate set with probability proportional to x*_li.
func sampleFromCandidates(p *caching.Problem, frac *caching.Fractional, candidates [][]int, rng *rand.Rand) *caching.Assignment {
	a := &caching.Assignment{BS: make([]int, len(p.Requests))}
	for l, set := range candidates {
		total := 0.0
		for _, i := range set {
			total += frac.X[l][i]
		}
		if total <= 0 {
			a.BS[l] = set[0]
			continue
		}
		r := rng.Float64() * total
		choice := set[len(set)-1]
		for _, i := range set {
			r -= frac.X[l][i]
			if r <= 0 {
				choice = i
				break
			}
		}
		a.BS[l] = choice
	}
	return a
}

// exploreOutsideCandidates implements Algorithm 1 line 9: assign each
// request to a random station OUTSIDE its candidate set (falling back to the
// candidate set when it covers every station).
func exploreOutsideCandidates(p *caching.Problem, candidates [][]int, rng *rand.Rand) *caching.Assignment {
	a := &caching.Assignment{BS: make([]int, len(p.Requests))}
	for l, set := range candidates {
		inSet := make(map[int]bool, len(set))
		for _, i := range set {
			inSet[i] = true
		}
		outside := make([]int, 0, p.NumStations-len(set))
		for i := 0; i < p.NumStations; i++ {
			if !inSet[i] {
				outside = append(outside, i)
			}
		}
		if len(outside) == 0 {
			a.BS[l] = set[rng.Intn(len(set))]
			continue
		}
		a.BS[l] = outside[rng.Intn(len(outside))]
	}
	return a
}
