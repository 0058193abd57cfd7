// Package bandit provides the multi-armed-bandit machinery of Section IV:
// each base station is an arm whose reward process is the unit-data
// processing delay X_i(t); playing an arm (assigning at least one request to
// the station) reveals that slot's sample, and the learner maintains the
// empirical mean theta_i. The package also supplies the epsilon_t schedule of
// Algorithm 1, UCB1 and Thompson-sampling index policies for ablations, and
// the cumulative-regret tracker of Eq. (10).
package bandit

import (
	"fmt"
	"math"
	"math/rand"
)

// Arms tracks per-station empirical statistics of the delay process.
type Arms struct {
	count []int     // m_i: times arm i was played
	mean  []float64 // theta_i estimate
	m2    []float64 // sum of squared deviations (Welford)
	prior float64   // optimistic initial estimate for unplayed arms
}

// NewArms creates statistics for n arms. Unplayed arms report the optimistic
// prior estimate so they are attractive to explore.
func NewArms(n int, optimisticPrior float64) *Arms {
	a := &Arms{
		count: make([]int, n),
		mean:  make([]float64, n),
		m2:    make([]float64, n),
		prior: optimisticPrior,
	}
	for i := range a.mean {
		a.mean[i] = optimisticPrior
	}
	return a
}

// NewArmsWithPriors creates statistics with a per-arm optimistic prior —
// e.g. the known class-minimum delay of each base station (Lemma 1 assumes
// the delay extrema are known a priori), so a fresh femto cell is explored
// before an untouched macro cell ever looks attractive.
func NewArmsWithPriors(priors []float64) *Arms {
	a := &Arms{
		count: make([]int, len(priors)),
		mean:  append([]float64(nil), priors...),
		m2:    make([]float64, len(priors)),
	}
	for _, p := range priors {
		if p > a.prior {
			a.prior = p
		}
	}
	return a
}

// Observe records one delay sample for arm i (Welford update). Non-finite
// samples — corrupted feedback from a broken telemetry path — are rejected
// outright: one NaN folded into the running mean would poison the arm's
// estimate (and through it the LP costs) forever. The return reports whether
// the sample was ingested.
func (a *Arms) Observe(i int, delay float64) bool {
	if math.IsNaN(delay) || math.IsInf(delay, 0) {
		return false
	}
	if a.count[i] == 0 {
		a.mean[i] = delay
		a.count[i] = 1
		return true
	}
	a.count[i]++
	d := delay - a.mean[i]
	a.mean[i] += d / float64(a.count[i])
	a.m2[i] += d * (delay - a.mean[i])
	return true
}

// Mean returns the current estimate theta_i (the optimistic prior when the
// arm has never been played).
func (a *Arms) Mean(i int) float64 { return a.mean[i] }

// Means returns a copy of all current estimates.
func (a *Arms) Means() []float64 {
	out := make([]float64, len(a.mean))
	copy(out, a.mean)
	return out
}

// Count returns m_i, the number of observations of arm i.
func (a *Arms) Count(i int) int { return a.count[i] }

// Counts returns a copy of all per-arm observation counts (the flight
// recorder snapshots these each slot alongside Means).
func (a *Arms) Counts() []int {
	out := make([]int, len(a.count))
	copy(out, a.count)
	return out
}

// Variance returns the sample variance of arm i (0 with < 2 observations).
func (a *Arms) Variance(i int) float64 {
	if a.count[i] < 2 {
		return 0
	}
	return a.m2[i] / float64(a.count[i]-1)
}

// PlayedArms counts arms observed at least once — the learner's coverage of
// the station set, surfaced per slot by the observability layer to show how
// exploration spreads over time.
func (a *Arms) PlayedArms() int {
	n := 0
	for _, c := range a.count {
		if c > 0 {
			n++
		}
	}
	return n
}

// UCB returns the lower-confidence-bound index for a delay-minimisation
// bandit at round t: mean_i - sqrt(2 ln t / m_i). Lower is better; unplayed
// arms return -Inf so they are tried first.
func (a *Arms) UCB(i, t int) float64 {
	if a.count[i] == 0 {
		return math.Inf(-1)
	}
	if t < 2 {
		t = 2
	}
	return a.mean[i] - math.Sqrt(2*math.Log(float64(t))/float64(a.count[i]))
}

// Thompson draws a posterior sample for arm i assuming a Gaussian reward
// model with the arm's empirical mean and variance. Unplayed arms sample
// around the optimistic prior with large variance.
func (a *Arms) Thompson(i int, rng *rand.Rand) float64 {
	if a.count[i] == 0 {
		return a.prior * rng.Float64()
	}
	sd := math.Sqrt(a.Variance(i)/float64(a.count[i])) + 1e-9
	return a.mean[i] + rng.NormFloat64()*sd
}

// Schedule is the exploration-probability schedule epsilon_t.
type Schedule interface {
	// Epsilon returns the exploration probability for time slot t (1-based).
	Epsilon(t int) float64
}

// ConstantSchedule is Algorithm 1's fixed epsilon_t (the paper uses 1/4).
type ConstantSchedule struct {
	// Value is the fixed exploration probability.
	Value float64
}

// Epsilon implements Schedule.
func (s ConstantSchedule) Epsilon(int) float64 { return s.Value }

// DecaySchedule is the c/t schedule used by the regret analysis (Theorem 1,
// part 2), with 0 < c < 1.
type DecaySchedule struct {
	// C is the numerator constant.
	C float64
}

// Epsilon implements Schedule.
func (s DecaySchedule) Epsilon(t int) float64 {
	if t < 1 {
		t = 1
	}
	e := s.C / float64(t)
	if e > 1 {
		e = 1
	}
	return e
}

var (
	_ Schedule = ConstantSchedule{}
	_ Schedule = DecaySchedule{}
)

// RegretTracker accumulates the per-slot regret of Eq. (10): the difference
// between the delay obtained by the algorithm and the best achievable delay
// of the slot.
type RegretTracker struct {
	perSlot    []float64
	cumulative float64
}

// Record adds one slot's realised and optimal average delays. Negative
// instantaneous regret (the algorithm beating the reference due to noise) is
// clamped to zero, matching the expectation-based definition.
func (r *RegretTracker) Record(realised, optimal float64) error {
	if math.IsNaN(realised) || math.IsNaN(optimal) {
		return fmt.Errorf("bandit: NaN regret inputs (%v, %v)", realised, optimal)
	}
	inst := realised - optimal
	if inst < 0 {
		inst = 0
	}
	r.perSlot = append(r.perSlot, inst)
	r.cumulative += inst
	return nil
}

// Cumulative returns the total regret so far.
func (r *RegretTracker) Cumulative() float64 { return r.cumulative }

// Slots returns the number of recorded slots.
func (r *RegretTracker) Slots() int { return len(r.perSlot) }

// PerSlot returns a copy of the instantaneous regret series.
func (r *RegretTracker) PerSlot() []float64 {
	out := make([]float64, len(r.perSlot))
	copy(out, r.perSlot)
	return out
}

// TheoremOneBound evaluates the regret upper bound of Theorem 1,
// sigma * log((T-1)/(e^{1/c}+1)), where sigma is the optimal-vs-worst gap of
// Lemma 1. Callers supply sigma computed from known delay extrema.
func TheoremOneBound(sigma, c float64, horizon int) (float64, error) {
	if c <= 0 || c >= 1 {
		return 0, fmt.Errorf("bandit: c = %v, need 0 < c < 1", c)
	}
	if horizon < 2 {
		return 0, fmt.Errorf("bandit: horizon = %d, need >= 2", horizon)
	}
	denom := math.Exp(1/c) + 1
	arg := (float64(horizon) - 1) / denom
	if arg < 1 {
		// The bound is vacuous (log < 0) for very short horizons; report 0.
		return 0, nil
	}
	return sigma * math.Log(arg), nil
}

// LemmaOneGap evaluates sigma of Lemma 1:
// max( |R| * (dmax - gamma*dmin + deltaIns),
//
//	|R| * gamma * (1 - e^{-2 gamma |R|^2}) + deltaIns ).
func LemmaOneGap(numRequests int, dmax, dmin, gamma, deltaIns float64) float64 {
	r := float64(numRequests)
	a := r * (dmax - gamma*dmin + deltaIns)
	b := r*gamma*(1-math.Exp(-2*gamma*r*r)) + deltaIns
	return math.Max(a, b)
}
