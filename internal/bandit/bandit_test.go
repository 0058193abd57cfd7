package bandit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestArmsObserveMean(t *testing.T) {
	a := NewArms(2, 100)
	if a.Mean(0) != 100 {
		t.Errorf("unplayed mean = %v, want optimistic prior 100", a.Mean(0))
	}
	a.Observe(0, 10)
	if a.Mean(0) != 10 {
		t.Errorf("after first obs mean = %v, want 10", a.Mean(0))
	}
	a.Observe(0, 20)
	if a.Mean(0) != 15 {
		t.Errorf("mean = %v, want 15", a.Mean(0))
	}
	if a.Count(0) != 2 || a.Count(1) != 0 {
		t.Errorf("counts = %d,%d, want 2,0", a.Count(0), a.Count(1))
	}
}

func TestArmsVariance(t *testing.T) {
	a := NewArms(1, 0)
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Observe(0, v)
	}
	// Known dataset: mean 5, sample variance 32/7.
	if math.Abs(a.Mean(0)-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", a.Mean(0))
	}
	if math.Abs(a.Variance(0)-32.0/7) > 1e-12 {
		t.Errorf("variance = %v, want %v", a.Variance(0), 32.0/7)
	}
	b := NewArms(1, 0)
	b.Observe(0, 3)
	if b.Variance(0) != 0 {
		t.Errorf("variance with 1 obs = %v, want 0", b.Variance(0))
	}
}

func TestMeansCopy(t *testing.T) {
	a := NewArms(2, 5)
	m := a.Means()
	m[0] = 999
	if a.Mean(0) == 999 {
		t.Error("Means exposed internal slice")
	}
}

func TestUCBPrefersUnplayed(t *testing.T) {
	a := NewArms(2, 50)
	a.Observe(0, 10)
	if !math.IsInf(a.UCB(1, 5), -1) {
		t.Errorf("unplayed UCB = %v, want -Inf", a.UCB(1, 5))
	}
	if a.UCB(0, 5) >= 10 {
		t.Errorf("UCB = %v, want below mean 10 (optimism)", a.UCB(0, 5))
	}
}

func TestUCBShrinksWithPlays(t *testing.T) {
	a := NewArms(1, 0)
	a.Observe(0, 10)
	w1 := 10 - a.UCB(0, 100)
	for i := 0; i < 99; i++ {
		a.Observe(0, 10)
	}
	w2 := 10 - a.UCB(0, 100)
	if w2 >= w1 {
		t.Errorf("confidence width grew with plays: %v -> %v", w1, w2)
	}
}

func TestThompsonConcentrates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewArms(1, 100)
	for i := 0; i < 500; i++ {
		a.Observe(0, 10+rng.NormFloat64())
	}
	for i := 0; i < 100; i++ {
		s := a.Thompson(0, rng)
		if s < 8 || s > 12 {
			t.Fatalf("posterior sample %v far from mean 10", s)
		}
	}
	// Unplayed arm samples within [0, prior).
	b := NewArms(1, 100)
	for i := 0; i < 100; i++ {
		if s := b.Thompson(0, rng); s < 0 || s >= 100 {
			t.Fatalf("unplayed sample %v outside [0,100)", s)
		}
	}
}

func TestSchedules(t *testing.T) {
	c := ConstantSchedule{Value: 0.25}
	if c.Epsilon(1) != 0.25 || c.Epsilon(1000) != 0.25 {
		t.Error("constant schedule not constant")
	}
	d := DecaySchedule{C: 0.5}
	if got := d.Epsilon(1); got != 0.5 {
		t.Errorf("decay eps(1) = %v, want 0.5", got)
	}
	if got := d.Epsilon(10); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("decay eps(10) = %v, want 0.05", got)
	}
	if d.Epsilon(0) != 0.5 {
		t.Error("decay eps(0) should clamp t to 1")
	}
	big := DecaySchedule{C: 0.9}
	if big.Epsilon(1) > 1 {
		t.Error("epsilon should be capped at 1")
	}
}

func TestRegretTracker(t *testing.T) {
	var r RegretTracker
	if err := r.Record(10, 7); err != nil {
		t.Fatal(err)
	}
	if err := r.Record(5, 8); err != nil { // algorithm beat reference: clamp
		t.Fatal(err)
	}
	if r.Cumulative() != 3 {
		t.Errorf("cumulative = %v, want 3", r.Cumulative())
	}
	if r.Slots() != 2 {
		t.Errorf("slots = %d, want 2", r.Slots())
	}
	ps := r.PerSlot()
	if ps[0] != 3 || ps[1] != 0 {
		t.Errorf("per-slot = %v, want [3 0]", ps)
	}
	ps[0] = 99
	if r.PerSlot()[0] == 99 {
		t.Error("PerSlot exposed internal slice")
	}
	if err := r.Record(math.NaN(), 0); err == nil {
		t.Error("NaN accepted")
	}
}

func TestTheoremOneBound(t *testing.T) {
	// c = 0.5 -> e^2+1 ~ 8.389; T=100 -> log(99/8.389) ~ 2.468.
	got, err := TheoremOneBound(10, 0.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := 10 * math.Log(99/(math.Exp(2)+1))
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("bound = %v, want %v", got, want)
	}
	if _, err := TheoremOneBound(10, 0, 100); err == nil {
		t.Error("c=0 accepted")
	}
	if _, err := TheoremOneBound(10, 1, 100); err == nil {
		t.Error("c=1 accepted")
	}
	if _, err := TheoremOneBound(10, 0.5, 1); err == nil {
		t.Error("horizon=1 accepted")
	}
	// Short horizon where log argument < 1 -> vacuous bound 0.
	got, err = TheoremOneBound(10, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("vacuous bound = %v, want 0", got)
	}
}

func TestLemmaOneGap(t *testing.T) {
	// With gamma=0 the first term dominates: |R|*(dmax + deltaIns).
	got := LemmaOneGap(10, 50, 5, 0, 2)
	if got != 10*(50+2.0) {
		t.Errorf("gap = %v, want 520", got)
	}
	// Gap grows with |R|.
	if LemmaOneGap(20, 50, 5, 0.3, 2) <= LemmaOneGap(5, 50, 5, 0.3, 2) {
		t.Error("gap not monotone in |R|")
	}
}

// TestPropertyWelfordMatchesNaive cross-checks streaming mean/variance
// against the naive two-pass formulas.
func TestPropertyWelfordMatchesNaive(t *testing.T) {
	f := func(seed int64, nByte uint8) bool {
		n := 2 + int(nByte)%100
		rng := rand.New(rand.NewSource(seed))
		a := NewArms(1, 0)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
			a.Observe(0, xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(n-1)
		return math.Abs(a.Mean(0)-mean) < 1e-9 && math.Abs(a.Variance(0)-variance) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRegretNonNegativeMonotone checks cumulative regret never
// decreases.
func TestPropertyRegretNonNegativeMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var r RegretTracker
		prev := 0.0
		for i := 0; i < 50; i++ {
			if err := r.Record(rng.Float64()*10, rng.Float64()*10); err != nil {
				return false
			}
			if r.Cumulative() < prev-1e-12 {
				return false
			}
			prev = r.Cumulative()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestObserveRejectsNonFiniteSamples(t *testing.T) {
	a := NewArms(2, 1)
	a.Observe(0, 10)
	a.Observe(0, 20)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if a.Observe(0, bad) {
			t.Errorf("Observe ingested %v", bad)
		}
	}
	if got := a.Mean(0); got != 15 {
		t.Errorf("mean poisoned by rejected samples: %v, want 15", got)
	}
	if a.Count(0) != 2 {
		t.Errorf("count = %d after rejected samples, want 2", a.Count(0))
	}
	// An arm that has ONLY seen garbage stays on its finite prior.
	a.Observe(1, math.NaN())
	if got := a.Mean(1); math.IsNaN(got) || got != 1 {
		t.Errorf("untouched arm mean = %v, want prior 1", got)
	}
}
