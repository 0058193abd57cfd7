package forecast

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewARMACoefficientsValid(t *testing.T) {
	for _, p := range []int{1, 2, 5, 10} {
		a, err := NewARMA(p, 0)
		if err != nil {
			t.Fatalf("NewARMA(%d): %v", p, err)
		}
		if len(a.coefs) != p {
			t.Errorf("order = %d, want %d", len(a.coefs), p)
		}
		sum := 0.0
		for i, c := range a.coefs {
			if c < 0 || c > 1 {
				t.Errorf("coef %d = %v outside [0,1]", i, c)
			}
			if i > 0 && c > a.coefs[i-1] {
				t.Errorf("coefs increase at %d: %v > %v", i, c, a.coefs[i-1])
			}
			sum += c
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("coefs sum to %v", sum)
		}
	}
	if _, err := NewARMA(0, 0); err == nil {
		t.Error("order 0 accepted")
	}
}

func TestARMAPredictConstantSeries(t *testing.T) {
	a, err := NewARMA(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		a.Observe(7)
	}
	if got := a.Predict(); math.Abs(got-7) > 1e-12 {
		t.Errorf("prediction on constant series = %v, want 7", got)
	}
}

func TestARMAPredictWeightsRecent(t *testing.T) {
	a, err := NewARMA(2, 0) // coefs [2/3, 1/3]
	if err != nil {
		t.Fatal(err)
	}
	a.Observe(3) // older
	a.Observe(9) // newer
	want := 9*2.0/3 + 3*1.0/3
	if got := a.Predict(); math.Abs(got-want) > 1e-12 {
		t.Errorf("prediction = %v, want %v", got, want)
	}
}

func TestARMAColdStart(t *testing.T) {
	a, err := NewARMA(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Predict(); got != 5 {
		t.Errorf("cold prediction = %v, want prior 5", got)
	}
	a.Observe(10)
	if got := a.Predict(); got != 10 {
		t.Errorf("1-obs prediction = %v, want 10 (partial-history average)", got)
	}
	a.Observe(20)
	if got := a.Predict(); got != 15 {
		t.Errorf("2-obs prediction = %v, want 15", got)
	}
}

func TestARMAHistoryTruncated(t *testing.T) {
	a, err := NewARMA(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		a.Observe(float64(i))
	}
	if len(a.history) != 2 {
		t.Errorf("history length = %d, want 2", len(a.history))
	}
	want := 10*2.0/3 + 9*1.0/3
	if got := a.Predict(); math.Abs(got-want) > 1e-12 {
		t.Errorf("prediction = %v, want %v", got, want)
	}
}

func TestNaive(t *testing.T) {
	n := NewNaive(3)
	if n.Predict() != 3 {
		t.Errorf("cold naive = %v, want 3", n.Predict())
	}
	n.Observe(8)
	n.Observe(4)
	if n.Predict() != 4 {
		t.Errorf("naive = %v, want 4", n.Predict())
	}
}

func TestMovingAverage(t *testing.T) {
	m, err := NewMovingAverage(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Predict() != 2 {
		t.Errorf("cold MA = %v, want prior 2", m.Predict())
	}
	m.Observe(3)
	m.Observe(6)
	if m.Predict() != 4.5 {
		t.Errorf("MA = %v, want 4.5", m.Predict())
	}
	m.Observe(9)
	m.Observe(12) // evicts 3
	if m.Predict() != 9 {
		t.Errorf("MA = %v, want 9", m.Predict())
	}
	if _, err := NewMovingAverage(0, 0); err == nil {
		t.Error("window 0 accepted")
	}
}

func TestEvaluatePerfectOnConstant(t *testing.T) {
	series := []float64{5, 5, 5, 5, 5}
	mae, rmse, err := Evaluate(func() Predictor { return NewNaive(0) }, series)
	if err != nil {
		t.Fatal(err)
	}
	if mae != 0 || rmse != 0 {
		t.Errorf("mae=%v rmse=%v, want 0,0", mae, rmse)
	}
	if _, _, err := Evaluate(func() Predictor { return NewNaive(0) }, []float64{1}); err == nil {
		t.Error("short series accepted")
	}
}

func TestARMALagsBehindRegimeSwitch(t *testing.T) {
	// The paper's motivation: fixed-coefficient ARMA underreacts to bursty
	// regime switches. After a jump from 2 to 20, the order-4 model's first
	// prediction must still be far below 20.
	a, err := NewARMA(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		a.Observe(2)
	}
	a.Observe(20) // burst begins
	if got := a.Predict(); got > 12 {
		t.Errorf("ARMA adapted too fast: %v", got)
	}
}

func TestPropertyARMAPredictionWithinHistoryRange(t *testing.T) {
	// Convex coefficients keep predictions inside [min, max] of history.
	f := func(seed int64, orderByte uint8) bool {
		order := 1 + int(orderByte)%8
		a, err := NewARMA(order, 0)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 20; i++ {
			v := rng.Float64() * 50
			a.Observe(v)
			if i >= 20-order {
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
		}
		pred := a.Predict()
		return pred >= lo-1e-9 && pred <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMovingAverageMatchesNaiveSum(t *testing.T) {
	f := func(seed int64, wByte uint8) bool {
		w := 1 + int(wByte)%10
		m, err := NewMovingAverage(w, 0)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		var all []float64
		for i := 0; i < 30; i++ {
			v := rng.Float64() * 10
			all = append(all, v)
			m.Observe(v)
			// Naive recompute over the trailing window.
			start := len(all) - w
			if start < 0 {
				start = 0
			}
			sum := 0.0
			for _, x := range all[start:] {
				sum += x
			}
			want := sum / float64(len(all[start:]))
			if math.Abs(m.Predict()-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
