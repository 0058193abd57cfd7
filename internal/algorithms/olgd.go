package algorithms

import (
	"fmt"
	"math/rand"

	"github.com/mecsim/l4e/internal/bandit"
	"github.com/mecsim/l4e/internal/caching"
	"github.com/mecsim/l4e/internal/obs"
	"github.com/mecsim/l4e/internal/persist"
)

// OLGDConfig parameterises Algorithm 1.
type OLGDConfig struct {
	// NumStations is |BS|.
	NumStations int
	// Gamma is the candidate-set threshold of Eq. (9).
	Gamma float64
	// Schedule is the exploration probability epsilon_t (the paper's
	// Algorithm 1 uses the constant 1/4; DecaySchedule{C} matches the
	// Theorem 1 analysis).
	Schedule bandit.Schedule
	// OptimisticPrior is the initial delay estimate for unplayed stations.
	// It should be at or below the known class minimum so fresh arms look
	// attractive (optimism in the face of uncertainty).
	OptimisticPrior float64
	// Priors optionally supplies a per-station initial estimate (e.g. the
	// known class-minimum delay of each station), overriding
	// OptimisticPrior. Class-informed priors keep the learner from wasting
	// samples on tiers that cannot win, which matters in large networks.
	Priors []float64
	// LocalSearch applies single-move local search after rounding the
	// exploitation assignment (rounding-improvement ablation). Exploration
	// slots are left untouched — their purpose is to visit non-candidate
	// arms, not to be good.
	LocalSearch bool
	// Seed drives the policy's private randomness.
	Seed int64
	// Name optionally overrides the display name (default "OL_GD"),
	// used by ablation variants.
	Name string
	// FreshSolves disables the per-policy solver workspace, allocating all
	// solver state anew each slot, so every slot solves cold. The reference
	// ablation for the warm-start determinism test: without it, the
	// workspace carries the network-simplex basis across slots, which
	// reaches the same LP optimum but may pick a different optimal vertex
	// where there are ties.
	FreshSolves bool
}

// DefaultOLGDConfig uses the decaying epsilon_t = c/t schedule with c = 1/4.
// Algorithm 1's pseudo-code pins epsilon_t to the constant 1/4, but the
// regret analysis of Theorem 1 (part 2) explicitly assumes exploration with
// probability c/t, 0 < c < 1 — a constant 1/4 would make the expected regret
// grow linearly (a quarter of all slots assign every request to random
// non-candidate stations forever), contradicting the theorem's logarithmic
// bound. The default follows the analysis; ConstantSchedule{0.25} remains
// available as the literal-pseudo-code ablation.
func DefaultOLGDConfig(numStations int) OLGDConfig {
	return OLGDConfig{
		NumStations:     numStations,
		Gamma:           0.1,
		Schedule:        bandit.DecaySchedule{C: 0.25},
		OptimisticPrior: 1,
		Seed:            1,
	}
}

// OLGD is Algorithm 1 (OL_GD): online learning for the dynamic service
// caching problem with given demands.
type OLGD struct {
	cfg  OLGDConfig
	arms *bandit.Arms
	// rng draws from src, a counting source, so the policy's RNG cursor is
	// part of its serializable state (see SaveState/LoadState).
	rng      *rand.Rand
	src      *persist.CountingSource
	name     string
	observer *obs.Observer
	// ws carries solver state (graph/tableau/basis) across slots; nil when
	// cfg.FreshSolves asks for the allocate-per-slot, cold-solve reference
	// behaviour.
	ws *caching.Workspace
	// lastEps/lastExplored snapshot the most recent Decide's epsilon_t-greedy
	// branch for BanditState (the flight recorder reads it once per slot).
	lastEps      float64
	lastExplored bool
}

// NewOLGD builds the policy.
func NewOLGD(cfg OLGDConfig) (*OLGD, error) {
	if cfg.NumStations <= 0 {
		return nil, fmt.Errorf("algorithms: OLGD NumStations = %d", cfg.NumStations)
	}
	if cfg.Gamma < 0 || cfg.Gamma > 1 {
		return nil, fmt.Errorf("algorithms: OLGD Gamma = %v outside [0,1]", cfg.Gamma)
	}
	if cfg.Schedule == nil {
		return nil, fmt.Errorf("algorithms: OLGD Schedule is nil")
	}
	var arms *bandit.Arms
	if cfg.Priors != nil {
		if len(cfg.Priors) != cfg.NumStations {
			return nil, fmt.Errorf("algorithms: OLGD has %d priors for %d stations", len(cfg.Priors), cfg.NumStations)
		}
		arms = bandit.NewArmsWithPriors(cfg.Priors)
	} else {
		arms = bandit.NewArms(cfg.NumStations, cfg.OptimisticPrior)
	}
	name := cfg.Name
	if name == "" {
		name = "OL_GD"
	}
	src := persist.NewCountingSource(cfg.Seed)
	o := &OLGD{
		cfg:  cfg,
		arms: arms,
		rng:  rand.New(src),
		src:  src,
		name: name,
	}
	if !cfg.FreshSolves {
		o.ws = caching.NewWorkspace()
	}
	return o, nil
}

// Name implements Policy.
func (o *OLGD) Name() string { return o.name }

// Arms exposes the learner's per-station statistics (for diagnostics and the
// regret experiments).
func (o *OLGD) Arms() *bandit.Arms { return o.arms }

// SetObserver implements ObserverSetter: per-slot decide events (epsilon,
// explore-vs-exploit, solver effort, arms played) and bandit counters.
func (o *OLGD) SetObserver(ob *obs.Observer) { o.observer = ob }

// Decide implements Policy (Algorithm 1, lines 3-9).
func (o *OLGD) Decide(view *SlotView) (*caching.Assignment, error) {
	p := view.Problem
	if p.NumStations != o.cfg.NumStations {
		return nil, fmt.Errorf("algorithms: OLGD built for %d stations, slot has %d", o.cfg.NumStations, p.NumStations)
	}
	// Line 3-4: relax the ILP with theta = current estimates, solve, and
	// extract candidate sets.
	p.UnitDelayMS = o.arms.Means()
	frac, err := p.Solve(o.ws)
	if err != nil {
		return nil, fmt.Errorf("algorithms: OLGD slot %d: %w", view.T, err)
	}
	view.reportSolve(frac.Stats)
	recordSolve(o.observer, o.name, frac.Stats)
	candidates := p.Candidates(frac, o.cfg.Gamma)

	// Lines 5-9: epsilon_t-greedy over the candidate sets.
	eps := o.cfg.Schedule.Epsilon(view.T + 1)
	var a *caching.Assignment
	exploit := o.rng.Float64() < 1-eps
	o.lastEps = eps
	o.lastExplored = !exploit
	if exploit {
		a = sampleFromCandidates(p, frac, candidates, o.rng)
	} else {
		a = exploreOutsideCandidates(p, candidates, o.rng)
	}
	view.reportShed(repairCapacity(p, a))
	if exploit && o.cfg.LocalSearch {
		if _, err := p.LocalSearch(a, 0); err != nil {
			return nil, err
		}
	}
	if ob := o.observer; ob.Enabled() {
		ob.Set("bandit.epsilon", eps)
		if exploit {
			ob.Inc("bandit.exploit_slots")
		} else {
			ob.Inc("bandit.explore_slots")
		}
		if ob.TraceEnabled() {
			candTotal := 0
			for _, set := range candidates {
				candTotal += len(set)
			}
			ob.Emit(obs.Event{Slot: view.T, Name: "olgd.decide", Policy: o.name, Fields: obs.Fields{
				"epsilon":           eps,
				"explore":           !exploit,
				"solver":            string(frac.Stats.Solver),
				"solver_iterations": frac.Stats.Iterations,
				"phase1_iterations": frac.Stats.Phase1Iterations,
				"lp_objective_ms":   frac.Objective,
				"candidates_mean":   float64(candTotal) / float64(len(candidates)),
				"arms":              distinctStations(a),
				"arms_played_total": o.arms.PlayedArms(),
			}})
		}
	}
	return a, nil
}

// Observe implements Policy (Algorithm 1, lines 10-11).
func (o *OLGD) Observe(ob *Observation) { observeArms(o.arms, o.observer, ob) }

// BanditState implements BanditReporter for the flight recorder.
func (o *OLGD) BanditState() *BanditState {
	return &BanditState{
		Epsilon:    o.lastEps,
		HasEpsilon: true,
		Explored:   o.lastExplored,
		Pulls:      o.arms.Counts(),
		Means:      o.arms.Means(),
	}
}

var (
	_ Policy         = (*OLGD)(nil)
	_ BanditReporter = (*OLGD)(nil)
)
