package algorithms

import (
	"fmt"
	"sort"

	"github.com/mecsim/l4e/internal/bandit"
	"github.com/mecsim/l4e/internal/caching"
	"github.com/mecsim/l4e/internal/mec"
	"github.com/mecsim/l4e/internal/obs"
)

// estimator is the delay-information model shared by the baselines. The
// paper's Greedy_GD and Pri_GD "cache services and offload user tasks
// according to the historical information of processing latencies" and
// ignore the per-station uncertainty: by default the estimates are STATIC
// historical values (e.g. the per-class average latency an operator would
// have on file) and are never updated. Setting adaptive=true turns on
// passive mean-tracking from the stations the baseline happens to use — an
// ablation showing how much of OL_GD's edge comes from its exploration
// rather than from mere bookkeeping.
type estimator struct {
	static   []float64
	arms     *bandit.Arms
	adaptive bool
}

func newEstimator(static []float64, adaptive bool) estimator {
	e := estimator{static: append([]float64(nil), static...), adaptive: adaptive}
	if adaptive {
		e.arms = bandit.NewArms(len(static), 0)
		for i, v := range static {
			e.arms.Observe(i, v) // seed with the historical value
		}
	}
	return e
}

func (e *estimator) estimates() []float64 {
	if e.adaptive {
		return e.arms.Means()
	}
	return append([]float64(nil), e.static...)
}

func (e *estimator) observe(obs *Observation) {
	if !e.adaptive {
		return
	}
	for i, d := range obs.PlayedDelays {
		e.arms.Observe(i, d)
	}
}

// GreedyGD is the Greedy_GD baseline, implemented station-centrically per
// the paper's description ("each base station greedily selects a service and
// its tasks that could minimize the delay of each request"): stations act in
// order of their historical latency estimate (fastest believed station moves
// first); on its turn a station caches the single service with the largest
// unassigned demand and claims that service's requests while capacity
// remains. Stations keep taking turns until every request is assigned. The
// station-at-a-time, one-service-per-turn structure is what makes it myopic:
// it fragments services across stations and lets a mediocre station claim
// tasks a better station could still have served.
type GreedyGD struct {
	estimator
	observer *obs.Observer
}

// SetObserver implements ObserverSetter.
func (g *GreedyGD) SetObserver(o *obs.Observer) { g.observer = o }

// NewGreedyGD builds the baseline. historical supplies the per-station
// latency estimates the operator has on file (one per station); adaptive
// turns on passive updating (ablation).
func NewGreedyGD(historical []float64, adaptive bool) (*GreedyGD, error) {
	if len(historical) == 0 {
		return nil, fmt.Errorf("algorithms: GreedyGD needs historical estimates")
	}
	return &GreedyGD{estimator: newEstimator(historical, adaptive)}, nil
}

// Name implements Policy.
func (g *GreedyGD) Name() string { return "Greedy_GD" }

// Decide implements Policy.
func (g *GreedyGD) Decide(view *SlotView) (*caching.Assignment, error) {
	p := view.Problem
	if p.NumStations != len(g.static) {
		return nil, fmt.Errorf("algorithms: GreedyGD has %d estimates for %d stations", len(g.static), p.NumStations)
	}
	p.UnitDelayMS = g.estimates()

	// Stations take turns fastest-believed first.
	order := make([]int, p.NumStations)
	for i := range order {
		order[i] = i
	}
	est := p.UnitDelayMS
	sort.SliceStable(order, func(a, b int) bool { return est[order[a]] < est[order[b]] })

	a := &caching.Assignment{BS: make([]int, len(p.Requests))}
	for l := range a.BS {
		a.BS[l] = -1
	}
	load := make([]float64, p.NumStations)
	remaining := len(p.Requests)
	passes := 0
	for pass := 0; remaining > 0; pass++ {
		passes = pass + 1
		progress := false
		for _, i := range order {
			if remaining == 0 {
				break
			}
			// Pick the service with the largest unassigned demand this
			// station could still host.
			demand := make([]float64, p.NumServices)
			for l, bs := range a.BS {
				if bs >= 0 {
					continue
				}
				need := p.Requests[l].Volume * p.CUnit
				if load[i]+need <= p.CapacityMHz[i]+1e-9 {
					demand[p.Requests[l].Service] += need
				}
			}
			bestK, bestD := -1, 0.0
			for k, d := range demand {
				if d > bestD {
					bestK, bestD = k, d
				}
			}
			if bestK < 0 {
				continue
			}
			// Claim that service's requests while capacity remains.
			for l, bs := range a.BS {
				if bs >= 0 || p.Requests[l].Service != bestK {
					continue
				}
				need := p.Requests[l].Volume * p.CUnit
				if load[i]+need > p.CapacityMHz[i]+1e-9 {
					continue
				}
				a.BS[l] = i
				load[i] += need
				remaining--
				progress = true
			}
		}
		if !progress {
			// Capacity exhausted: shed every unplaced request to the least
			// loaded surviving station rather than failing the slot; the
			// overload is priced by Evaluate and reported as a violation.
			shed := 0
			for l, bs := range a.BS {
				if bs >= 0 {
					continue
				}
				tgt := p.ShedStation(load, l)
				a.BS[l] = tgt
				load[tgt] += p.Requests[l].Volume * p.CUnit
				shed++
			}
			remaining = 0
			view.reportShed(shed)
		}
	}
	if ob := g.observer; ob.TraceEnabled() {
		ob.Emit(obs.Event{Slot: view.T, Name: "greedygd.decide", Policy: g.Name(), Fields: obs.Fields{
			"passes":        passes,
			"stations_used": len(distinctStations(a)),
		}})
	}
	return a, nil
}

// Observe implements Policy.
func (g *GreedyGD) Observe(obs *Observation) { g.observe(obs) }

// PriGD is the priority-driven baseline of [20]: each request gets a
// priority equal to the number of base stations covering its location, and
// higher-priority requests are served first, again under static historical
// delay estimates.
type PriGD struct {
	estimator
	priority []int // per request: coverage count (higher = served earlier)
	observer *obs.Observer
}

// SetObserver implements ObserverSetter.
func (p *PriGD) SetObserver(o *obs.Observer) { p.observer = o }

// NewPriGD builds the baseline. The per-request priorities are derived from
// the network geometry once (coverage is static); historical supplies the
// per-station latency estimates.
func NewPriGD(net *mec.Network, requestXY [][2]float64, historical []float64, adaptive bool) (*PriGD, error) {
	if net.NumStations() == 0 {
		return nil, fmt.Errorf("algorithms: PriGD needs a non-empty network")
	}
	if len(historical) != net.NumStations() {
		return nil, fmt.Errorf("algorithms: PriGD has %d estimates for %d stations", len(historical), net.NumStations())
	}
	pri := make([]int, len(requestXY))
	for l, xy := range requestXY {
		pri[l] = len(net.StationsCovering(xy[0], xy[1]))
	}
	return &PriGD{
		estimator: newEstimator(historical, adaptive),
		priority:  pri,
	}, nil
}

// Name implements Policy.
func (p *PriGD) Name() string { return "Pri_GD" }

// Decide implements Policy. Priorities are looked up by stable request ID,
// so the policy handles per-slot request churn (R(t) subsets).
func (p *PriGD) Decide(view *SlotView) (*caching.Assignment, error) {
	prob := view.Problem
	for l := range prob.Requests {
		if id := prob.Requests[l].ID; id < 0 || id >= len(p.priority) {
			return nil, fmt.Errorf("algorithms: PriGD has no priority for request id %d", id)
		}
	}
	prob.UnitDelayMS = p.estimates()
	order := make([]int, len(prob.Requests))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return p.priority[prob.Requests[order[a]].ID] > p.priority[prob.Requests[order[b]].ID]
	})
	a, shed := prob.GreedyAssign(order)
	view.reportShed(shed)
	if ob := p.observer; ob.TraceEnabled() {
		maxPri := 0
		for _, r := range prob.Requests {
			if pr := p.priority[r.ID]; pr > maxPri {
				maxPri = pr
			}
		}
		ob.Emit(obs.Event{Slot: view.T, Name: "prigd.decide", Policy: p.Name(), Fields: obs.Fields{
			"max_priority":  maxPri,
			"stations_used": len(distinctStations(a)),
		}})
	}
	return a, nil
}

// Observe implements Policy.
func (p *PriGD) Observe(obs *Observation) { p.observe(obs) }

// Oracle knows the true unit delays of every slot (they are injected by the
// simulator through SetTrueDelays before Decide) and solves the LP
// relaxation with them, rounding by argmax (Fractional.Round) and repairing
// capacity. It is the per-slot reference for regret measurement, not a
// competitor, and not the integral optimum: rounding and repair can leave it
// above the best integral assignment.
type Oracle struct {
	trueDelays []float64
	observer   *obs.Observer
	ws         *caching.Workspace
}

// NewOracle builds the reference policy.
func NewOracle() *Oracle { return &Oracle{ws: caching.NewWorkspace()} }

// SetObserver implements ObserverSetter (the oracle reports only its solver
// effort; it has no learning state worth tracing).
func (o *Oracle) SetObserver(ob *obs.Observer) { o.observer = ob }

// Name implements Policy.
func (o *Oracle) Name() string { return "Oracle" }

// SetTrueDelays injects the slot's actual d_i(t) (called by the simulator).
func (o *Oracle) SetTrueDelays(d []float64) {
	o.trueDelays = append(o.trueDelays[:0], d...)
}

// Decide implements Policy.
func (o *Oracle) Decide(view *SlotView) (*caching.Assignment, error) {
	p := view.Problem
	if len(o.trueDelays) != p.NumStations {
		return nil, fmt.Errorf("algorithms: Oracle has %d true delays for %d stations", len(o.trueDelays), p.NumStations)
	}
	p.UnitDelayMS = append([]float64(nil), o.trueDelays...)
	_, a, err := solveRoundRepair(view, o.ws, o.observer, o.Name())
	return a, err
}

// Observe implements Policy (the oracle has nothing to learn).
func (o *Oracle) Observe(*Observation) {}

// ResetWarmState implements WarmStateResetter (checkpoint barrier): the
// Oracle's workspace carries a basis like any learner's, and a restored
// cell's shadow Oracle starts cold.
func (o *Oracle) ResetWarmState() { o.ws.ResetWarm() }

var (
	_ Policy = (*GreedyGD)(nil)
	_ Policy = (*PriGD)(nil)
	_ Policy = (*Oracle)(nil)

	_ WarmStateResetter = (*Oracle)(nil)
)
