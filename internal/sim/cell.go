package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/mecsim/l4e/internal/algorithms"
	"github.com/mecsim/l4e/internal/bandit"
	"github.com/mecsim/l4e/internal/caching"
	"github.com/mecsim/l4e/internal/faults"
	"github.com/mecsim/l4e/internal/obs"
	"github.com/mecsim/l4e/internal/persist"
)

// ErrNoPendingObserve is returned by Cell.Observe when there is no decision
// awaiting feedback (Observe called before Decide, or called twice).
var ErrNoPendingObserve = errors.New("sim: no decision pending observation")

// ErrBadVolumes marks a rejected client-supplied demand vector (wrong length,
// or entries outside (0, maxVolume]) — a caller error, not a cell failure.
var ErrBadVolumes = errors.New("sim: bad demand vector")

// ErrBadStation marks client-supplied feedback naming a station outside the
// cell's network — a caller error, not a cell failure.
var ErrBadStation = errors.New("sim: unknown station")

// ErrBadDelay marks client-supplied feedback carrying a non-positive,
// non-finite or implausibly large unit delay — a caller error, not a cell
// failure. One such value would otherwise steer the learner's estimates for
// good.
var ErrBadDelay = errors.New("sim: bad delay")

// maxPlayedDelayMS is the largest unit delay (ms) client feedback may report:
// 10^4 times the slowest station class's UnitDelayMax. One delay near the top
// of the float64 range dropped every later OL_GD decide from the flow rung to
// greedy.
const maxPlayedDelayMS = 1e6

// maxVolume is the largest per-request demand (data units) a client may
// report: over 2×10^4 times the generator's largest volume at its defaults
// (BasicDemandMax 6 plus bursts capped at 4×BurstScale = 32), and over 10^4
// times it at the largest BurstScale any scenario sets (10). One volume of
// 1e308 made the slot's delay +Inf, which then failed every JSON encoding of
// the cell's running average.
const maxVolume = 1e6

// Cell is the step-wise decision engine for ONE MEC cell: the per-slot body
// of the batch simulator (Runner.Run), factored out so a long-running server
// can drive slots one at a time. A Cell owns its environment RNG, its
// policy's learner state and solver workspaces, and its fault schedule, so
// independent cells never share mutable state: a pool of cells is data-race
// free by construction as long as each individual cell is driven from one
// goroutine at a time.
//
// The protocol is Decide → Observe → Decide → ... :
//
//   - Decide samples the slot's environment (true delays, faults), reveals
//     the demand vector to the policy per the runner's DemandsGiven setting,
//     invokes the policy, and charges the realised delay. The returned
//     CellDecision carries the cell's own realised measurements
//     (PlayedDelays, TrueVolumes) — the feedback a perfectly instrumented
//     client would report back.
//   - Observe feeds delay/volume feedback into the policy's learner. Passing
//     nil uses the decision's own realised measurements, reproducing the
//     batch simulator's closed loop exactly.
//   - Calling Decide with feedback still pending first applies the default
//     Observe, so a client that never calls Observe gets the closed
//     simulation loop; a client that does call it owns the feedback channel.
//
// Unlike Runner.Run, a Cell does not stop at the workload horizon: slot
// indices grow monotonically and workload rows wrap around (slot t reads
// row t mod horizon), so a serving process can outlive the generated trace
// while bandit state keeps accumulating.
type Cell struct {
	r      *Runner
	policy algorithms.Policy
	// rng draws from src, a counting source, so the environment RNG cursor
	// is part of the cell's serializable state (see ExportState).
	rng    *rand.Rand
	src    *persist.CountingSource
	oracle *algorithms.Oracle
	res    *Result

	clusters []int
	// prevInstances is the warm-cache accounting state (charging rule).
	prevInstances map[[2]int]bool
	// obsPrevInst tracks cache churn for metrics only.
	obsPrevInst map[[2]int]bool

	t       int // next slot index to decide
	pending *pendingSlot

	decides  int64
	observes int64
	sumDelay float64
}

// pendingSlot carries a decided slot's state across the Decide/Observe split.
// Effect pointers stay valid because the schedule is not re-Applied until the
// next Decide, and a pending slot blocks the next Decide until observed.
type pendingSlot struct {
	t            int
	eff          *faults.Effect
	faultKinds   map[string]int
	actual       []float64
	deg          *algorithms.DegradeReport
	assignment   *caching.Assignment
	evalProblem  *caching.Problem
	avg          float64
	decideMS     float64
	feasible     bool
	decideFailed bool
	degraded     bool
	volMAE       float64
	played       map[int]float64
	vols         []float64
	active       []bool
}

// CellDecision is the outcome of one Decide step.
type CellDecision struct {
	// Slot is the cell's monotonic slot index (not wrapped).
	Slot int `json:"slot"`
	// Requests lists the stable workload IDs of the slot's active requests,
	// aligned with Stations.
	Requests []int `json:"requests"`
	// Stations[j] is the serving station assigned to Requests[j].
	Stations []int `json:"stations"`
	// DelayMS is the realised average delay of the slot (objective 3 under
	// true volumes and true delays).
	DelayMS float64 `json:"delay_ms"`
	// DecideMS is the wall-clock time of the policy's Decide call.
	DecideMS float64 `json:"decide_ms"`
	// Feasible reports capacity feasibility under the realised volumes.
	Feasible bool `json:"feasible"`
	// Degraded reports that the slot completed only through the degradation
	// machinery (solver fallback, shed requests, or a substituted
	// assignment).
	Degraded bool `json:"degraded"`
	// DecideFailed reports that the policy's Decide errored and the greedy
	// fallback assignment was substituted.
	DecideFailed bool `json:"decide_failed,omitempty"`
	// Solver is the degradation-ladder tier that produced the slot's
	// relaxation ("simplex", "flow", "greedy"); empty for policies that do
	// not solve a relaxation (e.g. the greedy baselines). The serving layer
	// labels its per-stage solve histogram with this tier.
	Solver string `json:"solver,omitempty"`
	// FallbackSolves and Shed count the slot's engaged degradation rungs.
	FallbackSolves int `json:"fallback_solves,omitempty"`
	Shed           int `json:"shed,omitempty"`
	// WarmSolve / SkippedSolve report the slot's relaxation reused the
	// previous slot's optimisation state or was skipped outright. Both false
	// for policies that solve no LP relaxation (Greedy_GD, Pri_GD).
	WarmSolve    bool `json:"warm_solve,omitempty"`
	SkippedSolve bool `json:"skipped_solve,omitempty"`
	// FaultsInjected counts fault events injected this slot.
	FaultsInjected int `json:"faults_injected,omitempty"`
	// PlayedDelays maps station ID → the realised unit delay of every
	// station that served a request this slot, after feedback faults.
	// Dropped and corrupted observations are both absent: a corrupted
	// reading is NaN, which neither JSON nor Observe accepts, and the
	// learner ignores it anyway. Echoing this map back to Observe therefore
	// teaches the policy exactly what the default feedback does.
	PlayedDelays map[int]float64 `json:"played_delays"`
	// TrueVolumes is the slot's realised demand vector over the FULL
	// workload request set (surge faults applied), the default volume
	// feedback for predictors.
	TrueVolumes []float64 `json:"-"`
}

// CellStatus is a point-in-time view of a cell's progress, for serving-layer
// introspection.
type CellStatus struct {
	Policy         string  `json:"policy"`
	Slot           int     `json:"slot"`
	Decides        int64   `json:"decides"`
	Observes       int64   `json:"observes"`
	AvgDelayMS     float64 `json:"avg_delay_ms"`
	DegradedSlots  int     `json:"degraded_slots"`
	OverloadSlots  int     `json:"overload_slots"`
	FaultsInjected int     `json:"faults_injected"`
	// WarmSolves / SkippedSolves count slots served by warm-started and
	// skipped solves (zero for policies that solve no LP relaxation).
	WarmSolves     int  `json:"warm_solves,omitempty"`
	SkippedSolves  int  `json:"skipped_solves,omitempty"`
	PendingObserve bool `json:"pending_observe"`
}

// NewCell prepares a step-wise engine over this runner's environment. The
// runner's fault schedule is rewound, so cells created from distinct runners
// with identical configs face identical fault sequences. A runner should back
// at most one live cell at a time (Run itself uses one internally).
func (r *Runner) NewCell(policy algorithms.Policy) (*Cell, error) {
	if policy == nil {
		return nil, fmt.Errorf("sim: nil policy")
	}
	T := r.slots()
	src := persist.NewCountingSource(r.cfg.Seed)
	c := &Cell{
		r:      r,
		policy: policy,
		rng:    rand.New(src),
		src:    src,
		res: &Result{
			Policy:           policy.Name(),
			PerSlotDelayMS:   make([]float64, 0, T),
			PerSlotRuntimeMS: make([]float64, 0, T),
		},
	}
	if r.cfg.TrackRegret {
		c.oracle = algorithms.NewOracle()
		c.res.Regret = &bandit.RegretTracker{}
	}

	ob := r.cfg.Observer
	if setter, ok := policy.(algorithms.ObserverSetter); ok {
		setter.SetObserver(ob)
	}
	if c.oracle != nil {
		c.oracle.SetObserver(ob)
	}
	if ob.TraceEnabled() {
		ob.Emit(obs.Event{Slot: 0, Name: "run.start", Policy: policy.Name(), Fields: obs.Fields{
			"slots":         T,
			"stations":      r.net.NumStations(),
			"requests":      len(r.w.Requests),
			"demands_given": r.cfg.DemandsGiven,
			"warm_cache":    r.cfg.WarmCache,
			"seed":          r.cfg.Seed,
		}})
	}
	r.cfg.Flight.RecordHeader(obs.FlightHeader{
		Policy:       policy.Name(),
		Slots:        T,
		Stations:     r.net.NumStations(),
		Requests:     len(r.w.Requests),
		Seed:         r.cfg.Seed,
		DemandsGiven: r.cfg.DemandsGiven,
		TrackRegret:  r.cfg.TrackRegret,
		Chaos:        r.sched != nil,
	})

	c.clusters = make([]int, len(r.w.Requests))
	for l, req := range r.w.Requests {
		c.clusters[l] = req.Cluster
	}
	if r.sched != nil {
		// Rewind every injector so compared policies face identical faults.
		r.sched.Reset()
	}
	return c, nil
}

// Slot returns the next slot index Decide will play.
func (c *Cell) Slot() int { return c.t }

// Policy returns the cell's policy name.
func (c *Cell) Policy() string { return c.policy.Name() }

// PendingObserve reports whether a decision is awaiting feedback.
func (c *Cell) PendingObserve() bool { return c.pending != nil }

// Status snapshots the cell's progress counters.
func (c *Cell) Status() CellStatus {
	st := CellStatus{
		Policy:         c.policy.Name(),
		Slot:           c.t,
		Decides:        c.decides,
		Observes:       c.observes,
		DegradedSlots:  c.res.DegradedSlots,
		OverloadSlots:  c.res.OverloadSlots,
		FaultsInjected: c.res.FaultsInjected,
		WarmSolves:     c.res.WarmSolves,
		SkippedSolves:  c.res.SkippedSolves,
		PendingObserve: c.pending != nil,
	}
	if n := len(c.res.PerSlotDelayMS); n > 0 {
		st.AvgDelayMS = c.sumDelay / float64(n)
	}
	return st
}

// validateVolumes checks a client-supplied demand vector.
func (r *Runner) validateVolumes(vols []float64) error {
	if len(vols) != len(r.w.Requests) {
		return fmt.Errorf("%w: %d entries, workload has %d requests",
			ErrBadVolumes, len(vols), len(r.w.Requests))
	}
	for l, v := range vols {
		if math.IsNaN(v) || v <= 0 || v > maxVolume {
			return fmt.Errorf("%w: entry %d is %v (want (0, %g])", ErrBadVolumes, l, v, maxVolume)
		}
	}
	return nil
}

// validatePlayed checks client-supplied feedback: only stations of the
// network, each with a delay in (0, maxPlayedDelayMS].
func (r *Runner) validatePlayed(played map[int]float64) error {
	n := r.net.NumStations()
	for i, d := range played {
		if i < 0 || i >= n {
			return fmt.Errorf("%w: %d outside [0,%d)", ErrBadStation, i, n)
		}
		if math.IsNaN(d) || d <= 0 || d > maxPlayedDelayMS {
			return fmt.Errorf("%w: station %d reports %v (want (0, %g])", ErrBadDelay, i, d, maxPlayedDelayMS)
		}
	}
	return nil
}

// Decide plays the next slot. A non-nil volumes vector overrides the
// workload trace's realised demands for this slot (length must equal the full
// workload request set; fault-injected surge factors still apply on top); nil
// replays the generated trace. If the previous decision is still awaiting
// feedback, its default Observe is applied first; a rejected volumes vector
// returns before that, leaving the cell as it was.
func (c *Cell) Decide(volumes []float64) (*CellDecision, error) {
	r, res := c.r, c.res
	if volumes != nil {
		if err := r.validateVolumes(volumes); err != nil {
			return nil, err
		}
	}
	if c.pending != nil {
		if err := c.Observe(nil, nil); err != nil {
			return nil, err
		}
	}
	ob, fl := r.cfg.Observer, r.cfg.Flight
	policy := c.policy
	t := c.t

	actual := r.net.SampleDelays(c.rng)

	// Fault injection: compose the slot's effect. Delay spikes perturb the
	// realised delays here; capacity and demand factors are folded into the
	// slot problems by buildProblem; feedback faults apply at Observe.
	var eff *faults.Effect
	var faultKinds map[string]int // copy of eff.ByKind (Effect is reused)
	if r.sched != nil {
		eff = r.sched.Apply(t)
		res.FaultsInjected += eff.Injected
		for i := range actual {
			if eff.DelayFactor[i] != 1 {
				actual[i] *= eff.DelayFactor[i]
			}
			if eff.CapacityFactor[i] == 0 {
				res.FailedStationSlots++
			}
		}
		if eff.Injected > 0 {
			if len(eff.ByKind) > 0 && (ob.Enabled() || fl != nil) {
				faultKinds = make(map[string]int, len(eff.ByKind))
				for kind, n := range eff.ByKind {
					faultKinds[kind] = n
					ob.AddL("faults.by_kind", int64(n), obs.L("kind", kind)...)
				}
			}
			ob.Add("faults.injected", int64(eff.Injected))
			if ob.TraceEnabled() {
				ob.Emit(obs.Event{Slot: t, Name: "fault", Policy: policy.Name(), Fields: obs.Fields{
					"injected": eff.Injected,
					"by_kind":  faultKinds,
				}})
			}
		}
	}

	if setter, ok := policy.(trueDelaySetter); ok {
		setter.SetTrueDelays(actual)
	}

	deg := &algorithms.DegradeReport{}
	view := &algorithms.SlotView{
		T:            t,
		Problem:      r.buildProblem(t, r.cfg.DemandsGiven, eff, volumes),
		DemandsGiven: r.cfg.DemandsGiven,
		Features:     r.slotFeatures(t),
		Clusters:     c.clusters,
		Degrade:      deg,
	}
	start := time.Now()
	assignment, err := policy.Decide(view)
	elapsed := time.Since(start)

	// Realised delay: true volumes, true delays. No policy or solver
	// failure aborts the horizon: a failed Decide (or a malformed
	// assignment) is replaced by the never-failing greedy fallback and the
	// slot is recorded as degraded.
	evalProblem := r.buildProblem(t, true, eff, volumes)
	evalOnce := func(a *caching.Assignment) (float64, bool, map[[2]int]bool, error) {
		if r.cfg.WarmCache {
			return evalProblem.EvaluateWarm(a, actual, c.prevInstances)
		}
		avg, feasible, err := evalProblem.Evaluate(a, actual)
		return avg, feasible, nil, err
	}
	var avg float64
	var feasible bool
	var inst map[[2]int]bool
	decideFailed := err != nil || assignment == nil
	if !decideFailed {
		avg, feasible, inst, err = evalOnce(assignment)
		decideFailed = err != nil
	}
	if decideFailed {
		res.DecideFailures++
		if ob.Enabled() {
			ob.Inc("sim.decide_failures")
			if err != nil && ob.TraceEnabled() {
				ob.Emit(obs.Event{Slot: t, Name: "decide.fallback", Policy: policy.Name(), Fields: obs.Fields{
					"error": err.Error(),
				}})
			}
		}
		assignment = fallbackAssignment(evalProblem)
		avg, feasible, inst, err = evalOnce(assignment)
		if err != nil {
			// The fallback assignment is structurally valid by
			// construction; failing to evaluate it is a simulator bug.
			return nil, fmt.Errorf("sim: %s slot %d fallback evaluation: %w", policy.Name(), t, err)
		}
	}
	if r.cfg.WarmCache {
		c.prevInstances = inst
	}
	if !feasible {
		res.OverloadSlots++
	}
	res.FallbackSolves += deg.FallbackSolves
	res.RepairViolations += deg.RepairViolations
	if deg.WarmSolve {
		res.WarmSolves++
	}
	if deg.SkippedSolve {
		res.SkippedSolves++
	}
	degraded := decideFailed || deg.FallbackSolves > 0 || deg.RepairViolations > 0
	if degraded {
		res.DegradedSlots++
		if ob.Enabled() {
			ob.Inc("sim.degraded_slots")
			if deg.RepairViolations > 0 {
				ob.Add("solve.repairs", int64(deg.RepairViolations))
			}
			if ob.TraceEnabled() {
				ob.Emit(obs.Event{Slot: t, Name: "degraded", Policy: policy.Name(), Fields: obs.Fields{
					"decide_failed":   decideFailed,
					"fallback_solves": deg.FallbackSolves,
					"shed":            deg.RepairViolations,
					"solver":          string(deg.Solver),
				}})
			}
		}
	}
	decideMS := float64(elapsed) / float64(time.Millisecond)
	res.PerSlotDelayMS = append(res.PerSlotDelayMS, avg)
	res.PerSlotRuntimeMS = append(res.PerSlotRuntimeMS, decideMS)
	c.sumDelay += avg

	// Realised-vs-predicted volume error: under demand uncertainty the
	// policy overwrote view volumes with its predictions at Decide;
	// evalProblem holds the realised rho_l(t) in the same order.
	volMAE := math.NaN()
	if !r.cfg.DemandsGiven && len(evalProblem.Requests) > 0 && (ob.Enabled() || fl != nil) {
		sum := 0.0
		for l := range evalProblem.Requests {
			sum += math.Abs(view.Problem.Requests[l].Volume - evalProblem.Requests[l].Volume)
		}
		volMAE = sum / float64(len(evalProblem.Requests))
		ob.Set("predictor.volume_mae", volMAE)
	}

	if ob.Enabled() {
		ob.Inc("sim.slots")
		ob.Observe("sim.decide_ms", decideMS)
		ob.Observe("sim.slot_delay_ms", avg)
		if !feasible {
			ob.Inc("sim.overload_slots")
		}

		// Cache churn: the slot's instance set is the distinct
		// (service, station) pairs the assignment instantiates.
		slotInst := make(map[[2]int]bool)
		for l, i := range assignment.BS {
			slotInst[[2]int{evalProblem.Requests[l].Service, i}] = true
		}
		added, evicted := 0, 0
		for ki := range slotInst {
			if !c.obsPrevInst[ki] {
				added++
			}
		}
		for ki := range c.obsPrevInst {
			if !slotInst[ki] {
				evicted++
			}
		}
		c.obsPrevInst = slotInst
		ob.Add("sim.instances_added", int64(added))
		ob.Add("sim.instances_evicted", int64(evicted))
		ob.Set("sim.instances_active", float64(len(slotInst)))

		if ob.TraceEnabled() {
			f := obs.Fields{
				"delay_ms":          avg,
				"decide_ms":         decideMS,
				"requests":          len(evalProblem.Requests),
				"overload":          !feasible,
				"instances_active":  len(slotInst),
				"instances_added":   added,
				"instances_evicted": evicted,
			}
			if !math.IsNaN(volMAE) {
				f["volume_mae"] = volMAE
			}
			ob.Emit(obs.Event{Slot: t, Name: "slot", Policy: policy.Name(), Fields: f})
		}
		ob.SampleRuntime(t)
	}

	// Default feedback: played arms and realised volumes, filtered through
	// the slot's feedback faults — dropped observations vanish (the learner
	// sees nothing for that arm), corrupted ones arrive as NaN (the learner
	// must reject them, see bandit.Arms.Observe).
	played := make(map[int]float64)
	for _, i := range assignment.BS {
		played[i] = actual[i]
	}
	if eff != nil {
		for i := range played {
			switch {
			case eff.DropFeedback[i]:
				delete(played, i)
			case eff.CorruptFeedback[i]:
				played[i] = math.NaN()
			}
		}
	}
	wt := t % r.w.Config.Horizon
	base := r.w.Volumes[wt]
	if volumes != nil {
		base = volumes
	}
	vols := append([]float64(nil), base...)
	if eff != nil && eff.DemandFactor != 1 {
		for l := range vols {
			vols[l] *= eff.DemandFactor
		}
	}
	active := append([]bool(nil), r.w.Active[wt]...)

	c.pending = &pendingSlot{
		t:            t,
		eff:          eff,
		faultKinds:   faultKinds,
		actual:       actual,
		deg:          deg,
		assignment:   assignment,
		evalProblem:  evalProblem,
		avg:          avg,
		decideMS:     decideMS,
		feasible:     feasible,
		decideFailed: decideFailed,
		degraded:     degraded,
		volMAE:       volMAE,
		played:       played,
		vols:         vols,
		active:       active,
	}
	c.decides++

	d := &CellDecision{
		Slot:           t,
		Requests:       make([]int, len(evalProblem.Requests)),
		Stations:       append([]int(nil), assignment.BS...),
		DelayMS:        avg,
		DecideMS:       decideMS,
		Feasible:       feasible,
		Degraded:       degraded,
		DecideFailed:   decideFailed,
		Solver:         string(deg.Solver),
		FallbackSolves: deg.FallbackSolves,
		Shed:           deg.RepairViolations,
		WarmSolve:      deg.WarmSolve,
		SkippedSolve:   deg.SkippedSolve,
		FaultsInjected: faultCount(eff),
		PlayedDelays:   make(map[int]float64, len(played)),
		TrueVolumes:    append([]float64(nil), vols...),
	}
	for j, req := range evalProblem.Requests {
		d.Requests[j] = req.ID
	}
	for i, v := range played {
		if !math.IsNaN(v) {
			d.PlayedDelays[i] = v
		}
	}
	return d, nil
}

// Observe completes the pending slot: it feeds delay/volume feedback into the
// policy's learner, runs the shadow oracle when regret tracking is on, and
// emits the slot's flight record. nil played / nil vols fall back to the
// slot's own realised measurements (the batch simulator's closed loop).
func (c *Cell) Observe(played map[int]float64, vols []float64) error {
	p := c.pending
	if p == nil {
		return ErrNoPendingObserve
	}
	r, res := c.r, c.res
	ob, fl := r.cfg.Observer, r.cfg.Flight
	policy := c.policy
	if played == nil {
		played = p.played
	} else if err := r.validatePlayed(played); err != nil {
		return err
	}
	if vols == nil {
		vols = p.vols
	} else if err := r.validateVolumes(vols); err != nil {
		return err
	}
	c.pending = nil
	c.observes++

	policy.Observe(&algorithms.Observation{
		T:            p.t,
		PlayedDelays: played,
		TrueVolumes:  vols,
		Active:       p.active,
	})

	var oracleDelay *float64
	if c.oracle != nil {
		c.oracle.SetTrueDelays(p.actual)
		oview := &algorithms.SlotView{
			T:            p.t,
			Problem:      r.buildProblem(p.t, true, p.eff, nil),
			DemandsGiven: true,
			Clusters:     c.clusters,
			Degrade:      &algorithms.DegradeReport{},
		}
		oassign, err := c.oracle.Decide(oview)
		if err != nil || oassign == nil {
			// The reference must not abort the run either: degrade it the
			// same way as the policy under test.
			oassign = fallbackAssignment(oview.Problem)
		}
		oavg, _, err := r.buildProblem(p.t, true, p.eff, nil).Evaluate(oassign, p.actual)
		if err != nil {
			return fmt.Errorf("sim: oracle slot %d evaluation: %w", p.t, err)
		}
		if err := res.Regret.Record(p.avg, oavg); err != nil {
			return err
		}
		oracleDelay = &oavg
		if ob.Enabled() {
			ob.Set("sim.cumulative_regret_ms", res.Regret.Cumulative())
			if ob.TraceEnabled() {
				ob.Emit(obs.Event{Slot: p.t, Name: "regret", Policy: policy.Name(), Fields: obs.Fields{
					"oracle_delay_ms": oavg,
					"slot_regret_ms":  p.avg - oavg,
					"cumulative_ms":   res.Regret.Cumulative(),
				}})
			}
		}
	}

	if fl != nil {
		// Recorded at slot END so arm statistics include this slot's
		// Observe — the trajectories Theorem 1 is about.
		rec := obs.FlightSlot{
			Policy:         policy.Name(),
			Slot:           p.t,
			DelayMS:        p.avg,
			DecideMS:       p.decideMS,
			FaultsInjected: faultCount(p.eff),
			FaultKinds:     p.faultKinds,
			Solver:         string(p.deg.Solver),
			FallbackSolves: p.deg.FallbackSolves,
			Shed:           p.deg.RepairViolations,
			DecideFailed:   p.decideFailed,
			Degraded:       p.degraded,
			Overload:       !p.feasible,
		}
		if oracleDelay != nil {
			reg := p.avg - *oracleDelay
			cum := res.Regret.Cumulative()
			rec.OracleDelayMS = oracleDelay
			rec.SlotRegretMS = &reg
			rec.CumRegretMS = &cum
		}
		if br, ok := policy.(algorithms.BanditReporter); ok {
			if st := br.BanditState(); st != nil {
				if st.HasEpsilon {
					eps := st.Epsilon
					explored := st.Explored
					rec.Epsilon = &eps
					rec.Explored = &explored
				}
				rec.ArmPulls = st.Pulls
				rec.ArmMeans = st.Means
			}
		}
		if !math.IsNaN(p.volMAE) {
			mae := p.volMAE
			rec.PredErrMAE = &mae
		}
		fl.RecordSlot(rec)
	}

	c.t++
	return nil
}

// finish seals the cell's run: aggregate statistics, observer flush, and the
// flight summary. Called by Runner.Run after the horizon completes.
func (c *Cell) finish() (*Result, error) {
	r, res := c.r, c.res
	ob, fl := r.cfg.Observer, r.cfg.Flight
	for _, d := range res.PerSlotDelayMS {
		res.AvgDelayMS += d
	}
	res.AvgDelayMS /= float64(len(res.PerSlotDelayMS))
	for _, rt := range res.PerSlotRuntimeMS {
		res.TotalRuntimeMS += rt
	}
	if ob.Enabled() {
		ob.Set("sim.avg_delay_ms", res.AvgDelayMS)
		ob.Set("sim.total_runtime_ms", res.TotalRuntimeMS)
		if err := ob.Flush(); err != nil {
			return nil, fmt.Errorf("sim: flushing trace: %w", err)
		}
	}
	if fl != nil {
		sum := obs.FlightSummary{
			Policy:         res.Policy,
			Slots:          len(res.PerSlotDelayMS),
			AvgDelayMS:     res.AvgDelayMS,
			TotalRuntimeMS: res.TotalRuntimeMS,
			OverloadSlots:  res.OverloadSlots,
			DegradedSlots:  res.DegradedSlots,
			FallbackSolves: res.FallbackSolves,
			DecideFailures: res.DecideFailures,
			FaultsInjected: res.FaultsInjected,
		}
		if res.Regret != nil {
			cum := res.Regret.Cumulative()
			sum.CumRegretMS = &cum
		}
		fl.RecordSummary(sum)
		if err := fl.Flush(); err != nil {
			return nil, fmt.Errorf("sim: flushing flight recorder: %w", err)
		}
	}
	return res, nil
}
