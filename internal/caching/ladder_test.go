package caching

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestLadderPrimaryPathIsUntouched(t *testing.T) {
	p := smallProblem()
	direct, err := p.solveExact(NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	ladder, err := p.Solve(NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	if ladder.Stats.Fallbacks != 0 || ladder.Stats.IterLimited {
		t.Fatalf("healthy solve recorded fallbacks=%d iterLimited=%v",
			ladder.Stats.Fallbacks, ladder.Stats.IterLimited)
	}
	if ladder.Objective != direct.Objective || ladder.Stats.Solver != direct.Stats.Solver {
		t.Fatalf("ladder (%v, %v) diverged from direct solve (%v, %v)",
			ladder.Objective, ladder.Stats.Solver, direct.Objective, direct.Stats.Solver)
	}
}

func TestSolveBudgetSurfacesErrIterLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomProblem(rng, 4, 4, 2)
	p.SolveBudget = 1 // one pivot cannot even finish phase 1
	_, err := p.solveExact(NewWorkspace())
	if err == nil {
		t.Fatal("1-pivot budget solved the LP")
	}
	if !errors.Is(err, ErrIterLimit) {
		t.Fatalf("error %v is not ErrIterLimit", err)
	}
	if errors.Is(err, ErrInfeasible) {
		t.Fatal("iteration-limit error also matches ErrInfeasible")
	}
}

func TestLadderFallsBackOnBudgetExhaustion(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := randomProblem(rng, 4, 4, 2)
	p.SolveBudget = 1
	f, err := p.Solve(NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	if f.Stats.Fallbacks == 0 {
		t.Fatal("budget-starved solve reported no fallbacks")
	}
	if !f.Stats.IterLimited {
		t.Fatal("IterLimited not set after ErrIterLimit fallback")
	}
	// Flow rung (no pivot budget) should have caught it.
	if f.Stats.Solver != SolverFlow {
		t.Fatalf("fallback solver = %v, want %v", f.Stats.Solver, SolverFlow)
	}
	if math.IsNaN(f.Objective) || math.IsInf(f.Objective, 0) {
		t.Fatalf("fallback objective %v not finite", f.Objective)
	}
}

func TestLadderSurvivesTotalBlackout(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomProblem(rng, 4, 3, 2)
	for i := range p.CapacityMHz {
		p.CapacityMHz[i] = 0 // every station down: LP and flow both infeasible
	}
	f, err := p.Solve(NewWorkspace())
	if err != nil {
		t.Fatalf("ladder aborted on blackout: %v", err)
	}
	if f.Stats.Solver != SolverGreedy {
		t.Fatalf("blackout solver = %v, want %v", f.Stats.Solver, SolverGreedy)
	}
	if f.Stats.IterLimited {
		t.Fatal("infeasible slot mislabelled as iteration-limited")
	}
	// Greedy must still fully assign every request, one-hot.
	for l := range p.Requests {
		sum := 0.0
		for i := 0; i < p.NumStations; i++ {
			sum += f.X[l][i]
		}
		if sum != 1 {
			t.Fatalf("request %d assignment mass %v, want 1", l, sum)
		}
	}
	if math.IsNaN(f.Objective) || math.IsInf(f.Objective, 0) {
		t.Fatalf("blackout objective %v not finite", f.Objective)
	}
}

func TestGreedySolverRespectsCapacityWhenPossible(t *testing.T) {
	p := smallProblem()
	a, shed := p.GreedyAssign(p.LargestFirst())
	if shed != 0 {
		t.Fatalf("greedy shed %d requests with room to spare", shed)
	}
	load := make([]float64, p.NumStations)
	for l, i := range a.BS {
		load[i] += p.Requests[l].Volume * p.CUnit
	}
	for i, u := range load {
		if u > p.CapacityMHz[i]+1e-6 {
			t.Fatalf("greedy overloaded station %d: %v > %v", i, u, p.CapacityMHz[i])
		}
	}
}

func TestEvaluatePricesZeroCapacityStations(t *testing.T) {
	p := smallProblem()
	p.CapacityMHz = []float64{0, 1000}
	a := &Assignment{BS: []int{0, 1}} // request 0 lands on the dead station
	avg, feasible, err := p.Evaluate(a, p.UnitDelayMS)
	if err != nil {
		t.Fatal(err)
	}
	if feasible {
		t.Error("assignment onto a zero-capacity station reported feasible")
	}
	if math.IsNaN(avg) || math.IsInf(avg, 0) {
		t.Fatalf("delay %v not finite", avg)
	}
	// The dead station's processing must be charged the overload penalty:
	// request 0 alone contributes 2*5*100 = 1000ms of processing.
	healthy := &Assignment{BS: []int{1, 1}}
	base, _, err := p.Evaluate(healthy, p.UnitDelayMS)
	if err != nil {
		t.Fatal(err)
	}
	if avg <= base {
		t.Errorf("dead-station delay %v not above healthy %v", avg, base)
	}
}

func TestNegativeSolveBudgetRejected(t *testing.T) {
	p := smallProblem()
	p.SolveBudget = -1
	if _, err := p.Solve(NewWorkspace()); err == nil {
		t.Fatal("negative SolveBudget accepted")
	}
}
