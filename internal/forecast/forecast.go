// Package forecast provides the time-series demand predictors the paper
// compares against: the autoregressive moving-average model of Eq. (27) used
// by the OL_Reg baseline, plus naive and sliding-window predictors for
// ablations. A Predictor consumes the realised volume history of one request
// and emits the next slot's estimate.
package forecast

import (
	"fmt"
	"math"
)

// Predictor forecasts the next-slot data volume of one request.
type Predictor interface {
	// Predict returns the estimate for the next slot.
	Predict() float64
	// Observe feeds the realised volume of the just-finished slot.
	Observe(volume float64)
}

// ARMA implements Eq. (27):
//
//	rho_hat(t) = a_1 rho(t-1) + a_2 rho(t-2) + ... + a_p rho(t-p)
//
// with constants 0 <= a_i <= 1, sum a_i = 1, and a_i non-increasing in i
// (recent slots weigh more). Before p observations arrive it averages what it
// has, falling back to the configured prior for the first slot.
type ARMA struct {
	coefs   []float64
	history []float64 // most recent first
	prior   float64
}

// NewARMA builds an order-p ARMA predictor with linearly decaying normalised
// coefficients a_i proportional to (p - i + 1), which satisfies the paper's
// constraints. prior seeds predictions before any observation.
func NewARMA(p int, prior float64) (*ARMA, error) {
	if p < 1 {
		return nil, fmt.Errorf("forecast: ARMA order %d, need >= 1", p)
	}
	coefs := make([]float64, p)
	total := 0.0
	for i := range coefs {
		coefs[i] = float64(p - i)
		total += coefs[i]
	}
	for i := range coefs {
		coefs[i] /= total
	}
	return &ARMA{coefs: coefs, prior: prior}, nil
}

// Predict implements Predictor.
func (a *ARMA) Predict() float64 {
	if len(a.history) == 0 {
		return a.prior
	}
	if len(a.history) < len(a.coefs) {
		// Not enough history for the full model: average what we have.
		sum := 0.0
		for _, v := range a.history {
			sum += v
		}
		return sum / float64(len(a.history))
	}
	est := 0.0
	for i, c := range a.coefs {
		est += c * a.history[i]
	}
	return est
}

// Observe implements Predictor.
func (a *ARMA) Observe(volume float64) {
	a.history = append([]float64{volume}, a.history...)
	if len(a.history) > len(a.coefs) {
		a.history = a.history[:len(a.coefs)]
	}
}

// Naive predicts the last observed value (random-walk forecast).
type Naive struct {
	last    float64
	hasData bool
	prior   float64
}

// NewNaive builds a last-value predictor seeded with prior.
func NewNaive(prior float64) *Naive { return &Naive{prior: prior} }

// Predict implements Predictor.
func (n *Naive) Predict() float64 {
	if !n.hasData {
		return n.prior
	}
	return n.last
}

// Observe implements Predictor.
func (n *Naive) Observe(volume float64) {
	n.last = volume
	n.hasData = true
}

// MovingAverage predicts the mean of the last w observations.
type MovingAverage struct {
	window  []float64
	size    int
	prior   float64
	sum     float64
	cursor  int
	entries int
}

// NewMovingAverage builds a window-w mean predictor.
func NewMovingAverage(w int, prior float64) (*MovingAverage, error) {
	if w < 1 {
		return nil, fmt.Errorf("forecast: window %d, need >= 1", w)
	}
	return &MovingAverage{window: make([]float64, w), size: w, prior: prior}, nil
}

// Predict implements Predictor.
func (m *MovingAverage) Predict() float64 {
	if m.entries == 0 {
		return m.prior
	}
	return m.sum / float64(m.entries)
}

// Observe implements Predictor.
func (m *MovingAverage) Observe(volume float64) {
	if m.entries == m.size {
		m.sum -= m.window[m.cursor]
	} else {
		m.entries++
	}
	m.window[m.cursor] = volume
	m.sum += volume
	m.cursor = (m.cursor + 1) % m.size
}

var (
	_ Predictor = (*ARMA)(nil)
	_ Predictor = (*Naive)(nil)
	_ Predictor = (*MovingAverage)(nil)
)

// Evaluate replays a series through a fresh predictor from factory and
// returns the mean absolute error and root-mean-square error of one-step
// forecasts (skipping the first prediction, which has no history).
func Evaluate(factory func() Predictor, series []float64) (mae, rmse float64, err error) {
	if len(series) < 2 {
		return 0, 0, fmt.Errorf("forecast: need >= 2 points, got %d", len(series))
	}
	p := factory()
	p.Observe(series[0])
	n := 0
	for t := 1; t < len(series); t++ {
		pred := p.Predict()
		diff := pred - series[t]
		mae += math.Abs(diff)
		rmse += diff * diff
		n++
		p.Observe(series[t])
	}
	return mae / float64(n), math.Sqrt(rmse / float64(n)), nil
}
