// Package faults is the composable fault-injection subsystem of the
// robustness experiments: deterministic, seeded, per-slot injectors that
// perturb the simulated MEC environment the way real exceptions do —
// correlated regional outages (a macro base station failing takes its
// geographic cluster of micro/femto cells with it), fractional capacity
// brownouts, processing-delay spikes, bandit feedback loss and corruption,
// and demand surges stacked on the workload's own bursts.
//
// Injectors compose through a Schedule: the simulator calls Schedule.Apply
// once per slot, in slot order, and every injector folds its contribution
// into the slot's Effect. All randomness is private to each injector (seeded
// at construction, reseeded by Reset), so the environment's random stream is
// untouched: a run with an empty schedule — or one whose injectors never
// fire — is bit-identical to a run with no schedule at all, and two runs of
// the same schedule inject identical faults regardless of which policy is
// being simulated.
package faults

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/mecsim/l4e/internal/mec"
)

// validProb rejects NaN along with out-of-range values: NaN compares false
// against every bound, so naive `v < 0 || v > 1` checks silently admit it.
func validProb(v float64) bool { return v >= 0 && v <= 1 }

// validFactor accepts finite multipliers strictly above min (NaN and +Inf
// both fail — an infinite delay or demand factor would poison every
// downstream average).
func validFactor(v, min float64) bool { return v > min && !math.IsInf(v, 1) }

// Effect is the composed fault state of one slot. The simulator reads it
// after Schedule.Apply; injectors only ever degrade it (factors multiply,
// masks OR), so composition order does not matter for severity.
type Effect struct {
	// CapacityFactor[i] scales station i's compute capacity this slot:
	// 1 = healthy, 0 = down, in between = brownout.
	CapacityFactor []float64
	// DelayFactor[i] multiplies station i's realised unit-data delay.
	DelayFactor []float64
	// DemandFactor multiplies every realised request volume (demand surge).
	DemandFactor float64
	// DropFeedback[i] discards the slot's delay observation of station i
	// (the bandit learns nothing from that arm even if it was played).
	DropFeedback []bool
	// CorruptFeedback[i] replaces the observation with NaN (sensor
	// corruption the learner must reject rather than ingest).
	CorruptFeedback []bool
	// Injected counts the fault events injected this slot (outage/brownout/
	// spike/surge onsets and per-station feedback faults).
	Injected int
	// ByKind attributes Injected to the injector that contributed each event,
	// keyed by Injector.Name(). Populated by Schedule.Apply; nil on slots with
	// no injections. Like the Effect itself, the map is reused across slots —
	// copy it to retain it past the next Apply.
	ByKind map[string]int
}

func newEffect(n int) *Effect {
	return &Effect{
		CapacityFactor:  make([]float64, n),
		DelayFactor:     make([]float64, n),
		DropFeedback:    make([]bool, n),
		CorruptFeedback: make([]bool, n),
	}
}

// reset restores the identity (no-fault) state.
func (e *Effect) reset() {
	for i := range e.CapacityFactor {
		e.CapacityFactor[i] = 1
		e.DelayFactor[i] = 1
		e.DropFeedback[i] = false
		e.CorruptFeedback[i] = false
	}
	e.DemandFactor = 1
	e.Injected = 0
	for k := range e.ByKind {
		delete(e.ByKind, k)
	}
}

// Active reports whether the slot carries any fault at all.
func (e *Effect) Active() bool {
	if e.DemandFactor != 1 || e.Injected > 0 {
		return true
	}
	for i := range e.CapacityFactor {
		if e.CapacityFactor[i] != 1 || e.DelayFactor[i] != 1 ||
			e.DropFeedback[i] || e.CorruptFeedback[i] {
			return true
		}
	}
	return false
}

// Injector perturbs one slot's Effect. Implementations are deterministic
// given their seed and the slot sequence: Apply is called exactly once per
// slot, in slot order, and Reset rewinds the injector to its initial state
// (called by the simulator before every run so paired policy comparisons
// face identical faults).
type Injector interface {
	// Name identifies the injector kind (e.g. "regional-outage").
	Name() string
	// Reset rewinds internal state and reseeds private randomness.
	Reset()
	// Apply folds this injector's slot-t contribution into e.
	Apply(t int, e *Effect)
	// Spec renders the injector as one canonical chaos-spec entry (the
	// grammar Parse accepts, every parameter explicit). Parsing a schedule's
	// Spec with the same base seed rebuilds behaviourally identical
	// injectors.
	Spec() string
}

// Schedule composes injectors over a fixed station set.
type Schedule struct {
	n    int
	injs []Injector
	eff  *Effect
}

// NewSchedule builds a schedule for numStations stations. A schedule with no
// injectors is valid and injects nothing.
func NewSchedule(numStations int, injs ...Injector) (*Schedule, error) {
	if numStations <= 0 {
		return nil, fmt.Errorf("faults: numStations = %d", numStations)
	}
	for i, inj := range injs {
		if inj == nil {
			return nil, fmt.Errorf("faults: injector %d is nil", i)
		}
	}
	return &Schedule{n: numStations, injs: injs, eff: newEffect(numStations)}, nil
}

// NumStations reports the station count the schedule was built for.
func (s *Schedule) NumStations() int { return s.n }

// Reset rewinds every injector to its initial seeded state. The simulator
// calls it at the start of each run so two policies compared over the same
// schedule face an identical fault sequence.
func (s *Schedule) Reset() {
	for _, inj := range s.injs {
		inj.Reset()
	}
}

// Apply composes all injectors for slot t. The returned Effect is reused
// across calls: it is valid only until the next Apply on this schedule.
func (s *Schedule) Apply(t int) *Effect {
	s.eff.reset()
	for _, inj := range s.injs {
		before := s.eff.Injected
		inj.Apply(t, s.eff)
		if d := s.eff.Injected - before; d > 0 {
			if s.eff.ByKind == nil {
				s.eff.ByKind = make(map[string]int)
			}
			s.eff.ByKind[inj.Name()] += d
		}
	}
	return s.eff
}

// downCap multiplies a capacity factor in, clamping at the floor of zero.
func downCap(e *Effect, i int, factor float64) {
	e.CapacityFactor[i] *= factor
	if e.CapacityFactor[i] < 0 {
		e.CapacityFactor[i] = 0
	}
}

// StationOutage is the i.i.d. Bernoulli station-crash model: each
// healthy station fails independently with Rate per slot and stays down —
// capacity zero — for DownSlots slots.
type StationOutage struct {
	// Rate is the per-slot, per-station failure probability in [0,1].
	Rate float64
	// DownSlots is how long a failed station stays down (>= 1).
	DownSlots int

	seed      int64
	rng       *rand.Rand
	downUntil []int
}

// NewStationOutage builds the injector.
func NewStationOutage(rate float64, downSlots int, seed int64) (*StationOutage, error) {
	if !validProb(rate) {
		return nil, fmt.Errorf("faults: outage rate %v outside [0,1]", rate)
	}
	if downSlots < 1 {
		return nil, fmt.Errorf("faults: outage down-slots %d < 1", downSlots)
	}
	o := &StationOutage{Rate: rate, DownSlots: downSlots, seed: seed}
	o.Reset()
	return o, nil
}

// Name implements Injector.
func (o *StationOutage) Name() string { return "outage" }

// Spec implements Injector.
func (o *StationOutage) Spec() string {
	return fmt.Sprintf("outage:%s:%d", ftoa(o.Rate), o.DownSlots)
}

// Reset implements Injector.
func (o *StationOutage) Reset() {
	o.rng = rand.New(rand.NewSource(o.seed))
	o.downUntil = nil
}

// Apply implements Injector.
func (o *StationOutage) Apply(t int, e *Effect) {
	if o.downUntil == nil {
		o.downUntil = make([]int, len(e.CapacityFactor))
	}
	for i := range e.CapacityFactor {
		if t < o.downUntil[i] {
			downCap(e, i, 0)
			continue
		}
		if o.rng.Float64() < o.Rate {
			o.downUntil[i] = t + o.DownSlots
			downCap(e, i, 0)
			e.Injected++
		}
	}
}

// RegionalOutage is the correlated, tier-aware outage model: base stations
// fail as geographic clusters, not independently. Each region is a macro
// station plus every station inside its coverage radius (the GT-ITM
// generator places micro/femto cells within a macro's range, so a region is
// a realistic backhaul/power domain). With probability Rate per slot one
// region — chosen uniformly — goes dark for DownSlots slots.
type RegionalOutage struct {
	// Rate is the per-slot probability that some region fails.
	Rate float64
	// DownSlots is the outage duration (>= 1).
	DownSlots int

	seed    int64
	regions [][]int
	rng     *rand.Rand
	// active outages: region index -> down-until slot.
	downUntil map[int]int
}

// NewRegionalOutage derives the region map from the network's geometry:
// one region per macro station (its covered stations plus itself). Networks
// without macro stations fall back to one region per station (degenerating
// to single-station outages).
func NewRegionalOutage(net *mec.Network, rate float64, downSlots int, seed int64) (*RegionalOutage, error) {
	if !validProb(rate) {
		return nil, fmt.Errorf("faults: regional outage rate %v outside [0,1]", rate)
	}
	if downSlots < 1 {
		return nil, fmt.Errorf("faults: regional outage down-slots %d < 1", downSlots)
	}
	if net.NumStations() == 0 {
		return nil, fmt.Errorf("faults: regional outage needs a non-empty network")
	}
	var regions [][]int
	for i := range net.Stations {
		if net.Stations[i].Class != mec.Macro {
			continue
		}
		members := []int{i}
		for j := range net.Stations {
			if j != i && net.Stations[i].Covers(net.Stations[j].X, net.Stations[j].Y) {
				members = append(members, j)
			}
		}
		regions = append(regions, members)
	}
	if len(regions) == 0 {
		for i := 0; i < net.NumStations(); i++ {
			regions = append(regions, []int{i})
		}
	}
	r := &RegionalOutage{Rate: rate, DownSlots: downSlots, seed: seed, regions: regions}
	r.Reset()
	return r, nil
}

// Name implements Injector.
func (r *RegionalOutage) Name() string { return "regional-outage" }

// Spec implements Injector.
func (r *RegionalOutage) Spec() string {
	return fmt.Sprintf("regional:%s:%d", ftoa(r.Rate), r.DownSlots)
}

// Reset implements Injector.
func (r *RegionalOutage) Reset() {
	r.rng = rand.New(rand.NewSource(r.seed))
	r.downUntil = make(map[int]int)
}

// Apply implements Injector.
func (r *RegionalOutage) Apply(t int, e *Effect) {
	if r.rng.Float64() < r.Rate {
		reg := r.rng.Intn(len(r.regions))
		if until := t + r.DownSlots; until > r.downUntil[reg] {
			r.downUntil[reg] = until
		}
		e.Injected++
	}
	for reg, until := range r.downUntil {
		if t >= until {
			delete(r.downUntil, reg)
			continue
		}
		for _, i := range r.regions[reg] {
			downCap(e, i, 0)
		}
	}
}

// Brownout is fractional capacity degradation: a station does not crash, it
// slows — its capacity is multiplied by Factor (e.g. thermal throttling, a
// co-located tenant stealing cycles) for DownSlots slots.
type Brownout struct {
	// Rate is the per-slot, per-station brownout probability.
	Rate float64
	// Factor is the residual capacity fraction in (0,1).
	Factor float64
	// DownSlots is the brownout duration (>= 1).
	DownSlots int

	seed     int64
	rng      *rand.Rand
	dimUntil []int
}

// NewBrownout builds the injector.
func NewBrownout(rate, factor float64, downSlots int, seed int64) (*Brownout, error) {
	if !validProb(rate) {
		return nil, fmt.Errorf("faults: brownout rate %v outside [0,1]", rate)
	}
	if !(factor > 0 && factor < 1) {
		return nil, fmt.Errorf("faults: brownout factor %v outside (0,1)", factor)
	}
	if downSlots < 1 {
		return nil, fmt.Errorf("faults: brownout down-slots %d < 1", downSlots)
	}
	b := &Brownout{Rate: rate, Factor: factor, DownSlots: downSlots, seed: seed}
	b.Reset()
	return b, nil
}

// Name implements Injector.
func (b *Brownout) Name() string { return "brownout" }

// Spec implements Injector.
func (b *Brownout) Spec() string {
	return fmt.Sprintf("brownout:%s:%s:%d", ftoa(b.Rate), ftoa(b.Factor), b.DownSlots)
}

// Reset implements Injector.
func (b *Brownout) Reset() {
	b.rng = rand.New(rand.NewSource(b.seed))
	b.dimUntil = nil
}

// Apply implements Injector.
func (b *Brownout) Apply(t int, e *Effect) {
	if b.dimUntil == nil {
		b.dimUntil = make([]int, len(e.CapacityFactor))
	}
	for i := range e.CapacityFactor {
		if t < b.dimUntil[i] {
			downCap(e, i, b.Factor)
			continue
		}
		if b.rng.Float64() < b.Rate {
			b.dimUntil[i] = t + b.DownSlots
			downCap(e, i, b.Factor)
			e.Injected++
		}
	}
}

// DelaySpike multiplies a station's realised unit-data processing delay by
// Factor for DownSlots slots — congestion or interference the bandit
// observes as an outlier sample, not a crash.
type DelaySpike struct {
	// Rate is the per-slot, per-station spike probability.
	Rate float64
	// Factor is the delay multiplier (> 1).
	Factor float64
	// DownSlots is the spike duration (>= 1).
	DownSlots int

	seed       int64
	rng        *rand.Rand
	spikeUntil []int
}

// NewDelaySpike builds the injector.
func NewDelaySpike(rate, factor float64, downSlots int, seed int64) (*DelaySpike, error) {
	if !validProb(rate) {
		return nil, fmt.Errorf("faults: delay-spike rate %v outside [0,1]", rate)
	}
	if !validFactor(factor, 1) {
		return nil, fmt.Errorf("faults: delay-spike factor %v must be finite and exceed 1", factor)
	}
	if downSlots < 1 {
		return nil, fmt.Errorf("faults: delay-spike down-slots %d < 1", downSlots)
	}
	d := &DelaySpike{Rate: rate, Factor: factor, DownSlots: downSlots, seed: seed}
	d.Reset()
	return d, nil
}

// Name implements Injector.
func (d *DelaySpike) Name() string { return "delay-spike" }

// Spec implements Injector.
func (d *DelaySpike) Spec() string {
	return fmt.Sprintf("spike:%s:%s:%d", ftoa(d.Rate), ftoa(d.Factor), d.DownSlots)
}

// Reset implements Injector.
func (d *DelaySpike) Reset() {
	d.rng = rand.New(rand.NewSource(d.seed))
	d.spikeUntil = nil
}

// Apply implements Injector.
func (d *DelaySpike) Apply(t int, e *Effect) {
	if d.spikeUntil == nil {
		d.spikeUntil = make([]int, len(e.DelayFactor))
	}
	for i := range e.DelayFactor {
		if t < d.spikeUntil[i] {
			e.DelayFactor[i] *= d.Factor
			continue
		}
		if d.rng.Float64() < d.Rate {
			d.spikeUntil[i] = t + d.DownSlots
			e.DelayFactor[i] *= d.Factor
			e.Injected++
		}
	}
}

// FeedbackLoss models a broken telemetry path: each slot, each station's
// delay observation is independently dropped with DropProb (the learner sees
// nothing for that arm) or corrupted to NaN with CorruptProb (the learner
// sees garbage it must reject). Lost and corrupted feedback is exactly the
// regime where a naive bandit update poisons its own estimates.
type FeedbackLoss struct {
	// DropProb is the per-slot, per-station observation-loss probability.
	DropProb float64
	// CorruptProb is the per-slot, per-station NaN-corruption probability.
	CorruptProb float64

	seed int64
	rng  *rand.Rand
}

// NewFeedbackLoss builds the injector.
func NewFeedbackLoss(dropProb, corruptProb float64, seed int64) (*FeedbackLoss, error) {
	if !validProb(dropProb) || !validProb(corruptProb) {
		return nil, fmt.Errorf("faults: feedback probabilities (%v,%v) outside [0,1]", dropProb, corruptProb)
	}
	f := &FeedbackLoss{DropProb: dropProb, CorruptProb: corruptProb, seed: seed}
	f.Reset()
	return f, nil
}

// Name implements Injector.
func (f *FeedbackLoss) Name() string { return "feedback-loss" }

// Spec implements Injector.
func (f *FeedbackLoss) Spec() string {
	return fmt.Sprintf("feedback:%s:%s", ftoa(f.DropProb), ftoa(f.CorruptProb))
}

// Reset implements Injector.
func (f *FeedbackLoss) Reset() { f.rng = rand.New(rand.NewSource(f.seed)) }

// Apply implements Injector.
func (f *FeedbackLoss) Apply(t int, e *Effect) {
	for i := range e.DropFeedback {
		switch u := f.rng.Float64(); {
		case u < f.DropProb:
			e.DropFeedback[i] = true
			e.Injected++
		case u < f.DropProb+f.CorruptProb:
			e.CorruptFeedback[i] = true
			e.Injected++
		}
	}
}

// DemandSurge stacks a network-wide demand multiplier on top of the
// workload's own bursty regime: with probability Rate per slot a surge
// begins, multiplying every realised request volume by Factor for DownSlots
// slots. Surges compound the capacity pressure of whatever bursts the
// workload is already in — the paper's exception regime, turned up.
type DemandSurge struct {
	// Rate is the per-slot surge-onset probability.
	Rate float64
	// Factor is the volume multiplier (> 1).
	Factor float64
	// DownSlots is the surge duration (>= 1).
	DownSlots int

	seed       int64
	rng        *rand.Rand
	surgeUntil int
}

// NewDemandSurge builds the injector.
func NewDemandSurge(rate, factor float64, downSlots int, seed int64) (*DemandSurge, error) {
	if !validProb(rate) {
		return nil, fmt.Errorf("faults: surge rate %v outside [0,1]", rate)
	}
	if !validFactor(factor, 1) {
		return nil, fmt.Errorf("faults: surge factor %v must be finite and exceed 1", factor)
	}
	if downSlots < 1 {
		return nil, fmt.Errorf("faults: surge down-slots %d < 1", downSlots)
	}
	s := &DemandSurge{Rate: rate, Factor: factor, DownSlots: downSlots, seed: seed}
	s.Reset()
	return s, nil
}

// Name implements Injector.
func (s *DemandSurge) Name() string { return "demand-surge" }

// Spec implements Injector.
func (s *DemandSurge) Spec() string {
	return fmt.Sprintf("surge:%s:%s:%d", ftoa(s.Rate), ftoa(s.Factor), s.DownSlots)
}

// Reset implements Injector.
func (s *DemandSurge) Reset() {
	s.rng = rand.New(rand.NewSource(s.seed))
	s.surgeUntil = 0
}

// Apply implements Injector.
func (s *DemandSurge) Apply(t int, e *Effect) {
	if t >= s.surgeUntil && s.rng.Float64() < s.Rate {
		s.surgeUntil = t + s.DownSlots
		e.Injected++
	}
	if t < s.surgeUntil {
		e.DemandFactor *= s.Factor
	}
}

// Blackout is the deterministic worst case: EVERY station goes down at slot
// At for DownSlots slots. It exists for chaos tests and demos — the
// degradation ladder must carry a policy through a slot with zero total
// capacity without aborting the horizon.
type Blackout struct {
	// At is the first dark slot.
	At int
	// DownSlots is the blackout duration (>= 1).
	DownSlots int
}

// NewBlackout builds the injector.
func NewBlackout(at, downSlots int) (*Blackout, error) {
	if at < 0 {
		return nil, fmt.Errorf("faults: blackout slot %d < 0", at)
	}
	if downSlots < 1 {
		return nil, fmt.Errorf("faults: blackout down-slots %d < 1", downSlots)
	}
	return &Blackout{At: at, DownSlots: downSlots}, nil
}

// Name implements Injector.
func (b *Blackout) Name() string { return "blackout" }

// Spec implements Injector.
func (b *Blackout) Spec() string {
	return fmt.Sprintf("blackout:%d:%d", b.At, b.DownSlots)
}

// Reset implements Injector (stateless).
func (b *Blackout) Reset() {}

// Apply implements Injector.
func (b *Blackout) Apply(t int, e *Effect) {
	if t < b.At || t >= b.At+b.DownSlots {
		return
	}
	if t == b.At {
		e.Injected++
	}
	for i := range e.CapacityFactor {
		downCap(e, i, 0)
	}
}

var (
	_ Injector = (*StationOutage)(nil)
	_ Injector = (*RegionalOutage)(nil)
	_ Injector = (*Brownout)(nil)
	_ Injector = (*DelaySpike)(nil)
	_ Injector = (*FeedbackLoss)(nil)
	_ Injector = (*DemandSurge)(nil)
	_ Injector = (*Blackout)(nil)
)
