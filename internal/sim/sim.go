// Package sim is the slotted simulator of Section VI: each slot it draws the
// true unit-data processing delays d_i(t) of every base station, reveals the
// slot's request volumes (to the policy only when demands are "given"),
// invokes a policy's Decide, and charges the REALISED average delay —
// processing with true volumes and true delays, known access latency, and
// instantiation per cached instance — along with wall-clock running time.
// A shadow Oracle policy can be run on identical slot data to measure the
// regret of Eq. (10).
package sim

import (
	"fmt"
	"math"

	"github.com/mecsim/l4e/internal/algorithms"
	"github.com/mecsim/l4e/internal/bandit"
	"github.com/mecsim/l4e/internal/caching"
	"github.com/mecsim/l4e/internal/faults"
	"github.com/mecsim/l4e/internal/mec"
	"github.com/mecsim/l4e/internal/obs"
	"github.com/mecsim/l4e/internal/workload"
)

// Config controls a simulation run.
type Config struct {
	// Seed drives the environment's randomness (delay draws). Two runs with
	// the same seed face identical slot conditions, making policy
	// comparisons paired.
	Seed int64
	// DemandsGiven exposes true volumes to the policy at Decide time
	// (Figs. 3-5); otherwise only basic demands are visible and the bursty
	// component must be predicted (Figs. 6-7).
	DemandsGiven bool
	// TrackRegret runs a shadow Oracle on identical slot data and records
	// per-slot regret.
	TrackRegret bool
	// Slots overrides the workload horizon when positive (must not exceed
	// it).
	Slots int
	// UseAccessLatency adds the known wired-path latency term lat(reg(l),i)
	// to assignment costs (what surfaces AS1755's bottleneck links).
	UseAccessLatency bool
	// WarmCache charges instantiation delay only for instances newly cached
	// this slot (instances surviving from the previous slot stay warm).
	// Off by default: the paper's objective (3) charges y_ki each slot.
	WarmCache bool
	// Faults composes the fault injectors applied each slot (outages,
	// brownouts, delay spikes, feedback loss, demand surges — see
	// internal/faults). nil injects nothing. The schedule is Reset at the
	// start of every Run, so compared policies face identical fault
	// sequences; injector randomness is private, leaving the environment's
	// delay draws untouched.
	Faults *faults.Schedule
	// SolveBudget caps the exact backend's simplex pivots per slot (0 = the
	// solver default). Exhaustion degrades through the solve ladder instead
	// of failing the slot.
	SolveBudget int
	// Observer receives per-slot spans and metrics. nil (the default)
	// disables all instrumentation; every hook is nil-safe, so the disabled
	// path costs one pointer test per call site and leaves per-slot results
	// bit-identical to an uninstrumented build.
	Observer *obs.Observer
	// Flight receives one versioned JSONL record per slot (delay, regret,
	// exploration state, faults, solve tier) plus a header and summary per
	// run — the artifact cmd/mecstat analyses. nil disables recording; like
	// the observer, the recorder only reads simulation state and never
	// touches the environment RNG, so results stay bit-identical.
	Flight *obs.FlightRecorder
}

// Result summarises one policy's run.
type Result struct {
	Policy string
	// PerSlotDelayMS is the realised average delay of each slot (Eq. 3 with
	// true volumes and true delays).
	PerSlotDelayMS []float64
	// PerSlotRuntimeMS is the wall-clock time of each Decide call.
	PerSlotRuntimeMS []float64
	// AvgDelayMS is the mean of PerSlotDelayMS.
	AvgDelayMS float64
	// TotalRuntimeMS sums Decide wall-clock time.
	TotalRuntimeMS float64
	// OverloadSlots counts slots where realised volumes exceeded some
	// station capacity (possible when acting on under-predicted demands).
	OverloadSlots int
	// FailedStationSlots counts (station, slot) pairs spent fully down
	// (capacity zeroed by a fault).
	FailedStationSlots int
	// DegradedSlots counts slots that completed only through the degradation
	// machinery: a solver fallback, shed requests, or a substituted fallback
	// assignment. The horizon itself never aborts on these.
	DegradedSlots int
	// FallbackSolves counts solver-ladder rungs that failed across the run
	// (see caching.Problem.Solve).
	FallbackSolves int
	// RepairViolations counts requests shed past capacity across the run.
	RepairViolations int
	// WarmSolves counts slots whose relaxation warm-started from the previous
	// slot's optimisation state, and SkippedSolves slots whose relaxation was
	// skipped outright (bit-identical inputs). Both stay zero for policies
	// that solve no LP relaxation (Greedy_GD, Pri_GD).
	WarmSolves    int
	SkippedSolves int
	// DecideFailures counts slots where the policy's Decide itself errored
	// and the simulator substituted a greedy fallback assignment.
	DecideFailures int
	// FaultsInjected counts fault events injected by the schedule.
	FaultsInjected int
	// Regret is populated when Config.TrackRegret is set.
	Regret *bandit.RegretTracker
}

// Runner executes policies over a network + workload pair.
type Runner struct {
	net *mec.Network
	w   *workload.Workload
	cfg Config

	// sched is Config.Faults; nil when no fault injection is configured.
	sched *faults.Schedule

	// accessLat[l][i] is the known latency from request l's registered
	// station to station i (nil when disabled).
	accessLat [][]float64
}

// NewRunner prepares a simulation environment. The access-latency matrix is
// precomputed from the network's link latencies (shortest paths).
func NewRunner(net *mec.Network, w *workload.Workload, cfg Config) (*Runner, error) {
	if net.NumStations() == 0 {
		return nil, fmt.Errorf("sim: empty network")
	}
	if cfg.Slots < 0 || cfg.Slots > w.Config.Horizon {
		return nil, fmt.Errorf("sim: Slots = %d outside [0,%d]", cfg.Slots, w.Config.Horizon)
	}
	if cfg.SolveBudget < 0 {
		return nil, fmt.Errorf("sim: SolveBudget = %d is negative", cfg.SolveBudget)
	}
	if cfg.Faults != nil && cfg.Faults.NumStations() != net.NumStations() {
		return nil, fmt.Errorf("sim: fault schedule built for %d stations, network has %d",
			cfg.Faults.NumStations(), net.NumStations())
	}
	r := &Runner{net: net, w: w, cfg: cfg, sched: cfg.Faults}
	if cfg.UseAccessLatency {
		// Shortest latency from each distinct registered station, cached.
		bySource := make(map[int][]float64)
		r.accessLat = make([][]float64, len(w.Requests))
		for l, req := range w.Requests {
			dist, ok := bySource[req.RegisteredBS]
			if !ok {
				dist = net.ShortestLatency(req.RegisteredBS)
				// Unreachable stations get a large-but-finite penalty so the
				// LP stays bounded.
				maxFinite := 0.0
				for _, d := range dist {
					if !math.IsInf(d, 1) && d > maxFinite {
						maxFinite = d
					}
				}
				for i, d := range dist {
					if math.IsInf(d, 1) {
						dist[i] = 10*maxFinite + 100
					}
				}
				bySource[req.RegisteredBS] = dist
			}
			r.accessLat[l] = dist
		}
	}
	return r, nil
}

// slots returns the effective number of slots to run.
func (r *Runner) slots() int {
	if r.cfg.Slots > 0 {
		return r.cfg.Slots
	}
	return r.w.Config.Horizon
}

// buildProblem assembles slot t's caching problem over the ACTIVE request
// set R(t). trueVolumes selects whether request volumes carry rho_l(t) or
// only the basic demands; a non-nil fault effect scales station capacities
// (outages and brownouts) and, on the true volumes only, request demands
// (surges — the basic-demand view stays the a-priori information). A non-nil
// override replaces the trace's realised volumes with a client-supplied
// demand vector (full workload indexing); slot indices wrap around the
// workload horizon so a step-wise Cell can outlive the generated trace.
// RequestSpec.ID keeps each slot entry tied to its stable workload request,
// so policies with per-request state index by ID, not position.
func (r *Runner) buildProblem(t int, trueVolumes bool, eff *faults.Effect, override []float64) *caching.Problem {
	p := &caching.Problem{
		NumStations: r.net.NumStations(),
		NumServices: len(r.w.Services),
		CapacityMHz: make([]float64, r.net.NumStations()),
		CUnit:       r.w.Config.CUnit,
		UnitDelayMS: make([]float64, r.net.NumStations()),
		InstDelayMS: r.w.InstDelayMS,
		SolveBudget: r.cfg.SolveBudget,
	}
	for i := range p.CapacityMHz {
		p.CapacityMHz[i] = r.net.Stations[i].CapacityMHz
		if eff != nil {
			p.CapacityMHz[i] *= eff.CapacityFactor[i]
		}
	}
	wt := t % r.w.Config.Horizon
	var lat [][]float64
	for l, req := range r.w.Requests {
		if !r.w.Active[wt][l] {
			continue
		}
		v := req.BasicDemand
		if trueVolumes {
			v = r.w.Volumes[wt][l]
			if override != nil {
				v = override[l]
			}
			if eff != nil {
				v *= eff.DemandFactor
			}
		}
		p.Requests = append(p.Requests, caching.RequestSpec{
			ID:           req.ID,
			Service:      req.ServiceID,
			Volume:       v,
			RegisteredBS: req.RegisteredBS,
		})
		if r.accessLat != nil {
			lat = append(lat, r.accessLat[l])
		}
	}
	p.AccessLatencyMS = lat
	return p
}

// trueDelaySetter is implemented by the Oracle policy.
type trueDelaySetter interface {
	SetTrueDelays([]float64)
}

// Run executes the policy over the horizon. It is a thin loop over the
// step-wise Cell engine: one Decide + default Observe per slot — exactly the
// closed simulation loop, so results are bit-identical to the historical
// monolithic implementation.
func (r *Runner) Run(policy algorithms.Policy) (*Result, error) {
	cell, err := r.NewCell(policy)
	if err != nil {
		return nil, err
	}
	T := r.slots()
	for t := 0; t < T; t++ {
		if _, err := cell.Decide(nil); err != nil {
			return nil, err
		}
		if err := cell.Observe(nil, nil); err != nil {
			return nil, err
		}
	}
	return cell.finish()
}

// faultCount returns the slot's injected-fault count (0 for a nil effect).
func faultCount(eff *faults.Effect) int {
	if eff == nil {
		return 0
	}
	return eff.Injected
}

// fallbackAssignment is the simulator's last resort when a policy fails to
// produce a usable assignment: the never-failing largest-first greedy placer
// of the solve ladder's greedy rung, applied directly to the slot's realised
// problem. Requests land on station 0 only if the problem fails Validate (a
// malformed instance the simulator itself built — effectively unreachable).
func fallbackAssignment(p *caching.Problem) *caching.Assignment {
	if err := p.Validate(); err != nil {
		return &caching.Assignment{BS: make([]int, len(p.Requests))}
	}
	a, _ := p.GreedyAssign(p.LargestFirst())
	return a
}

// slotFeatures returns each request's current-slot observable feature row
// (slot indices wrap around the workload horizon, mirroring buildProblem).
func (r *Runner) slotFeatures(t int) [][]float64 {
	wt := t % r.w.Config.Horizon
	out := make([][]float64, len(r.w.Requests))
	for l, req := range r.w.Requests {
		out[l] = []float64{r.w.Occupancy[wt][req.Cluster]}
	}
	return out
}

// Compare runs several policies over identical environments (same seed) and
// returns results in input order.
func (r *Runner) Compare(policies []algorithms.Policy) ([]*Result, error) {
	out := make([]*Result, 0, len(policies))
	for _, p := range policies {
		res, err := r.Run(p)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
