package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func mustSolve(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.SolveWS(nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("Solve status = %v, want optimal", sol.Status)
	}
	return sol
}

func TestSolveTrivialUnconstrained(t *testing.T) {
	p := NewProblem()
	p.AddBoundedVariable(1, math.Inf(1))
	sol := mustSolve(t, p)
	if !almostEqual(sol.Objective, 0, 1e-9) {
		t.Errorf("objective = %v, want 0", sol.Objective)
	}
}

func TestSolveSimpleLE(t *testing.T) {
	// min -x - 2y st x + y <= 4, x <= 3, y <= 2 -> x=2(or 3?), maximize x+2y:
	// best y=2, then x<=2 -> obj -(2)+-(4) = -6 at x=2,y=2.
	p := NewProblem()
	x := p.AddBoundedVariable(-1, 3)
	y := p.AddBoundedVariable(-2, 2)
	if err := p.AddConstraint([]int{x, y}, []float64{1, 1}, LE, 4); err != nil {
		t.Fatal(err)
	}
	sol := mustSolve(t, p)
	if !almostEqual(sol.Objective, -6, 1e-7) {
		t.Errorf("objective = %v, want -6", sol.Objective)
	}
	if !almostEqual(sol.X[x], 2, 1e-7) || !almostEqual(sol.X[y], 2, 1e-7) {
		t.Errorf("solution = %v, want [2 2]", sol.X)
	}
}

func TestSolveEquality(t *testing.T) {
	// min x + 2y st x + y = 5 -> x=5, y=0, obj 5.
	p := NewProblem()
	x := p.AddBoundedVariable(1, math.Inf(1))
	y := p.AddBoundedVariable(2, math.Inf(1))
	if err := p.AddConstraint([]int{x, y}, []float64{1, 1}, EQ, 5); err != nil {
		t.Fatal(err)
	}
	sol := mustSolve(t, p)
	if !almostEqual(sol.Objective, 5, 1e-7) {
		t.Errorf("objective = %v, want 5", sol.Objective)
	}
	if !almostEqual(sol.X[x], 5, 1e-7) {
		t.Errorf("x = %v, want 5", sol.X[x])
	}
}

func TestSolveGE(t *testing.T) {
	// min 3x + 2y st x + y >= 4, x >= 0, y >= 0 -> y=4, obj 8.
	p := NewProblem()
	x := p.AddBoundedVariable(3, math.Inf(1))
	y := p.AddBoundedVariable(2, math.Inf(1))
	if err := p.AddConstraint([]int{x, y}, []float64{1, 1}, GE, 4); err != nil {
		t.Fatal(err)
	}
	sol := mustSolve(t, p)
	if !almostEqual(sol.Objective, 8, 1e-7) {
		t.Errorf("objective = %v, want 8", sol.Objective)
	}
}

func TestSolveNegativeRHS(t *testing.T) {
	// min x st -x <= -3  (i.e. x >= 3) -> obj 3.
	p := NewProblem()
	x := p.AddBoundedVariable(1, math.Inf(1))
	if err := p.AddConstraint([]int{x}, []float64{-1}, LE, -3); err != nil {
		t.Fatal(err)
	}
	sol := mustSolve(t, p)
	if !almostEqual(sol.Objective, 3, 1e-7) {
		t.Errorf("objective = %v, want 3", sol.Objective)
	}
}

func TestSolveInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddBoundedVariable(1, 1)
	if err := p.AddConstraint([]int{x}, []float64{1}, GE, 2); err != nil {
		t.Fatal(err)
	}
	sol, err := p.SolveWS(nil)
	if err == nil {
		t.Fatalf("Solve = %+v, want infeasible error", sol)
	}
	if sol.Status != StatusInfeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestSolveUnbounded(t *testing.T) {
	p := NewProblem()
	p.AddBoundedVariable(-1, math.Inf(1)) // min -x, x unbounded above
	y := p.AddBoundedVariable(1, math.Inf(1))
	if err := p.AddConstraint([]int{y}, []float64{1}, LE, 1); err != nil {
		t.Fatal(err)
	}
	sol, err := p.SolveWS(nil)
	if err == nil {
		t.Fatalf("Solve = %+v, want unbounded error", sol)
	}
	if sol.Status != StatusUnbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestSolveDegenerate(t *testing.T) {
	// Classic degenerate LP; checks anti-cycling terminates.
	p := NewProblem()
	x1 := p.AddBoundedVariable(-0.75, math.Inf(1))
	x2 := p.AddBoundedVariable(150, math.Inf(1))
	x3 := p.AddBoundedVariable(-0.02, math.Inf(1))
	x4 := p.AddBoundedVariable(6, math.Inf(1))
	cons := []struct {
		coefs []float64
		rhs   float64
	}{
		{[]float64{0.25, -60, -0.04, 9}, 0},
		{[]float64{0.5, -90, -0.02, 3}, 0},
		{[]float64{0, 0, 1, 0}, 1},
	}
	for _, c := range cons {
		if err := p.AddConstraint([]int{x1, x2, x3, x4}, c.coefs, LE, c.rhs); err != nil {
			t.Fatal(err)
		}
	}
	sol := mustSolve(t, p)
	// Known optimum of Beale's example: -0.05 at x=(1/25,0,1,0).
	if !almostEqual(sol.Objective, -0.05, 1e-7) {
		t.Errorf("objective = %v, want -0.05", sol.Objective)
	}
}

func TestSolveTransportation(t *testing.T) {
	// 2 supplies (10, 20), 3 demands (10, 10, 10); cost matrix rows.
	cost := [2][3]float64{{1, 3, 5}, {4, 2, 1}}
	supply := []float64{10, 20}
	demand := []float64{10, 10, 10}
	p := NewProblem()
	var idx [2][3]int
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			idx[i][j] = p.AddBoundedVariable(cost[i][j], math.Inf(1))
		}
	}
	for i := 0; i < 2; i++ {
		cols := []int{idx[i][0], idx[i][1], idx[i][2]}
		if err := p.AddConstraint(cols, []float64{1, 1, 1}, LE, supply[i]); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 3; j++ {
		cols := []int{idx[0][j], idx[1][j]}
		if err := p.AddConstraint(cols, []float64{1, 1}, EQ, demand[j]); err != nil {
			t.Fatal(err)
		}
	}
	sol := mustSolve(t, p)
	// Optimal: s1 ships 10 to d1 (10), s2 ships 10 to d2 (20) and 10 to d3 (10): total 40.
	if !almostEqual(sol.Objective, 40, 1e-6) {
		t.Errorf("objective = %v, want 40", sol.Objective)
	}
}

func TestValidateRejectsBadInput(t *testing.T) {
	tests := []struct {
		name  string
		build func() *Problem
	}{
		{"nan cost", func() *Problem {
			p := NewProblem()
			p.AddBoundedVariable(math.NaN(), math.Inf(1))
			return p
		}},
		{"nan rhs", func() *Problem {
			p := NewProblem()
			x := p.AddBoundedVariable(1, math.Inf(1))
			_ = p.AddConstraint([]int{x}, []float64{1}, LE, math.NaN())
			return p
		}},
		{"inf coef", func() *Problem {
			p := NewProblem()
			x := p.AddBoundedVariable(1, math.Inf(1))
			_ = p.AddConstraint([]int{x}, []float64{math.Inf(1)}, LE, 1)
			return p
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.build().SolveWS(nil); err == nil {
				t.Error("Solve succeeded, want validation error")
			}
		})
	}
}

func TestAddConstraintErrors(t *testing.T) {
	p := NewProblem()
	x := p.AddBoundedVariable(1, math.Inf(1))
	if err := p.AddConstraint([]int{x}, []float64{1, 2}, LE, 1); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if err := p.AddConstraint([]int{5}, []float64{1}, LE, 1); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestSenseString(t *testing.T) {
	if LE.String() != "<=" || EQ.String() != "==" || GE.String() != ">=" {
		t.Error("Sense.String wrong")
	}
	if Sense(0).String() != "Sense(0)" {
		t.Error("invalid sense String wrong")
	}
	if StatusOptimal.String() != "optimal" || Status(0).String() != "Status(0)" {
		t.Error("Status.String wrong")
	}
}

// feasible reports whether x satisfies all constraints and bounds of p.
func feasible(p *Problem, x []float64, tol float64) bool {
	for j, v := range x {
		if v < -tol || v > p.upperBounds[j]+tol {
			return false
		}
	}
	for _, con := range p.constraints {
		lhs := 0.0
		for k, c := range con.Cols {
			lhs += con.Coefs[k] * x[c]
		}
		switch con.Sense {
		case LE:
			if lhs > con.RHS+tol {
				return false
			}
		case GE:
			if lhs < con.RHS-tol {
				return false
			}
		case EQ:
			if math.Abs(lhs-con.RHS) > tol {
				return false
			}
		}
	}
	return true
}

// TestPropertyRandomBoundedLPs solves random LPs with box bounds and random
// <= constraints and checks the simplex result is feasible and no worse than
// a large sample of random feasible points (weak optimality certificate).
func TestPropertyRandomBoundedLPs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		m := 1 + rng.Intn(4)
		p := NewProblem()
		for j := 0; j < n; j++ {
			p.AddBoundedVariable(rng.Float64()*4-2, 1+rng.Float64()*3)
		}
		for i := 0; i < m; i++ {
			cols := make([]int, n)
			coefs := make([]float64, n)
			for j := 0; j < n; j++ {
				cols[j] = j
				coefs[j] = rng.Float64() // non-negative -> always feasible at 0
			}
			if err := p.AddConstraint(cols, coefs, LE, 1+rng.Float64()*5); err != nil {
				return false
			}
		}
		sol, err := p.SolveWS(nil)
		if err != nil || sol.Status != StatusOptimal {
			return false
		}
		if !feasible(p, sol.X, 1e-6) {
			return false
		}
		// Objective consistency.
		obj := 0.0
		for j, v := range sol.X {
			obj += p.costs[j] * v
		}
		if !almostEqual(obj, sol.Objective, 1e-6) {
			return false
		}
		// Sampled points must not beat the reported optimum.
		for trial := 0; trial < 200; trial++ {
			x := make([]float64, n)
			for j := range x {
				x[j] = rng.Float64() * p.upperBounds[j]
			}
			if !feasible(p, x, 0) {
				continue
			}
			v := 0.0
			for j := range x {
				v += p.costs[j] * x[j]
			}
			if v < sol.Objective-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDualityGapZero checks strong duality on random feasible LPs by
// comparing against brute-force vertex enumeration for 2-variable problems.
func TestPropertyDualityGapZero(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewProblem()
		c0 := rng.Float64()*4 - 2
		c1 := rng.Float64()*4 - 2
		u0 := 1 + rng.Float64()*4
		u1 := 1 + rng.Float64()*4
		p.AddBoundedVariable(c0, u0)
		p.AddBoundedVariable(c1, u1)
		a := rng.Float64() + 0.1
		b := rng.Float64() + 0.1
		rhs := rng.Float64()*6 + 0.5
		if err := p.AddConstraint([]int{0, 1}, []float64{a, b}, LE, rhs); err != nil {
			return false
		}
		sol, err := p.SolveWS(nil)
		if err != nil {
			return false
		}
		// Brute force over a fine grid (2D, small): lower bound on optimum.
		best := math.Inf(1)
		const grid = 120
		for i := 0; i <= grid; i++ {
			for j := 0; j <= grid; j++ {
				x0 := u0 * float64(i) / grid
				x1 := u1 * float64(j) / grid
				if a*x0+b*x1 > rhs {
					continue
				}
				v := c0*x0 + c1*x1
				if v < best {
					best = v
				}
			}
		}
		// Grid optimum cannot beat the LP optimum by much more than grid error.
		return sol.Objective <= best+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSolveMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	build := func() *Problem {
		p := NewProblem()
		const n, m = 60, 40
		for j := 0; j < n; j++ {
			p.AddBoundedVariable(rng.Float64()*2-1, 5)
		}
		for i := 0; i < m; i++ {
			cols := make([]int, 0, 8)
			coefs := make([]float64, 0, 8)
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.15 {
					cols = append(cols, j)
					coefs = append(coefs, rng.Float64())
				}
			}
			if len(cols) == 0 {
				cols, coefs = []int{0}, []float64{1}
			}
			_ = p.AddConstraint(cols, coefs, LE, 2+rng.Float64()*4)
		}
		return p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := build()
		if _, err := p.SolveWS(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// randBoundedProblem builds a feasible, bounded random LP: all variables
// carry upper bounds (so negative costs stay bounded) and all constraints are
// LE/GE mixes with non-negative RHS.
func randBoundedProblem(rng *rand.Rand) *Problem {
	p := NewProblem()
	n := 3 + rng.Intn(6)
	for j := 0; j < n; j++ {
		p.AddBoundedVariable(rng.Float64()*10-5, 1+rng.Float64()*4)
	}
	m := 2 + rng.Intn(4)
	for i := 0; i < m; i++ {
		cols := make([]int, 0, n)
		coefs := make([]float64, 0, n)
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.6 {
				cols = append(cols, j)
				coefs = append(coefs, rng.Float64()*3)
			}
		}
		if len(cols) == 0 {
			cols = append(cols, rng.Intn(n))
			coefs = append(coefs, 1)
		}
		// LE with generous RHS keeps x=0 feasible; sprinkle GE rows with tiny
		// RHS that the bounds can always satisfy.
		sense := LE
		rhs := 5 + rng.Float64()*10
		if rng.Float64() < 0.3 {
			sense = GE
			rhs = rng.Float64() * 0.5
		}
		if err := p.AddConstraint(cols, coefs, sense, rhs); err != nil {
			panic(err)
		}
	}
	return p
}

func TestWarmIterBudgetResetsPerSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randBoundedProblem(rng)
	// Establish how many pivots one re-solve needs, then grant a budget
	// covering a single solve but far below the sum over many solves on one
	// workspace: every solve must stay within it independently.
	ws := NewWorkspace()
	if _, err := p.SolveWS(ws); err != nil {
		t.Fatal(err)
	}
	maxIters := 0
	for step := 0; step < 12; step++ {
		for j := 0; j < len(p.costs); j++ {
			if err := p.SetCost(j, rng.Float64()*10-5); err != nil {
				t.Fatal(err)
			}
		}
		sol, err := p.SolveWS(ws)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Iterations > maxIters {
			maxIters = sol.Iterations
		}
	}
	budget := maxIters + 5
	if err := p.SetIterLimit(budget); err != nil {
		t.Fatal(err)
	}
	rng = rand.New(rand.NewSource(7))
	ws = NewWorkspace()
	if _, err := p.SolveWS(ws); err != nil {
		t.Fatal(err)
	}
	total := 0
	for step := 0; step < 12; step++ {
		for j := 0; j < len(p.costs); j++ {
			if err := p.SetCost(j, rng.Float64()*10-5); err != nil {
				t.Fatal(err)
			}
		}
		sol, err := p.SolveWS(ws)
		if err != nil {
			t.Fatalf("step %d: budget %d not honoured per solve: %v", step, budget, err)
		}
		total += sol.Iterations
	}
	if total <= budget {
		t.Skipf("drift too cheap to prove accumulation (total %d <= budget %d)", total, budget)
	}
}
