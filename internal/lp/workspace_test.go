package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// buildRandomTransport constructs a small transportation-style LP with the
// given objective costs: minimise sum c_j x_j subject to per-source equality
// rows and per-destination capacity rows, x_j in [0, 1].
func buildRandomTransport(t testing.TB, nSrc, nDst int, costs []float64) *Problem {
	t.Helper()
	p := NewProblem()
	for j := 0; j < nSrc*nDst; j++ {
		p.AddBoundedVariable(costs[j], 1)
	}
	for s := 0; s < nSrc; s++ {
		cols := make([]int, nDst)
		coefs := make([]float64, nDst)
		for d := 0; d < nDst; d++ {
			cols[d] = s*nDst + d
			coefs[d] = 1
		}
		if err := p.AddConstraint(cols, coefs, EQ, 1); err != nil {
			t.Fatal(err)
		}
	}
	for d := 0; d < nDst; d++ {
		cols := make([]int, nSrc)
		coefs := make([]float64, nSrc)
		for s := 0; s < nSrc; s++ {
			cols[s] = s*nDst + d
			coefs[s] = 1
		}
		if err := p.AddConstraint(cols, coefs, LE, 2); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestSolveWSBitIdenticalToSolve drives one Problem + Workspace through a
// sequence of SetCost/SetConstraintRHS mutations and checks each solve is
// bit-identical (objective and every x_j) to a freshly built problem solved
// without a workspace.
func TestSolveWSBitIdenticalToSolve(t *testing.T) {
	const nSrc, nDst, rounds = 4, 3, 8
	rng := rand.New(rand.NewSource(3))
	costs := make([]float64, nSrc*nDst)
	for i := range costs {
		costs[i] = rng.Float64() * 10
	}

	ws := NewWorkspace()
	reused := buildRandomTransport(t, nSrc, nDst, costs)
	for round := 0; round < rounds; round++ {
		if round > 0 {
			for j := range costs {
				costs[j] = rng.Float64() * 10
				if err := reused.SetCost(j, costs[j]); err != nil {
					t.Fatal(err)
				}
			}
		}
		fresh := buildRandomTransport(t, nSrc, nDst, costs)
		want, err := fresh.SolveWS(nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reused.SolveWS(ws)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status {
			t.Fatalf("round %d: status %v vs %v", round, got.Status, want.Status)
		}
		if got.Objective != want.Objective {
			t.Fatalf("round %d: objective %x (ws) vs %x (fresh)", round, got.Objective, want.Objective)
		}
		for j := range want.X {
			if got.X[j] != want.X[j] {
				t.Fatalf("round %d: x[%d] = %x (ws) vs %x (fresh)", round, j, got.X[j], want.X[j])
			}
		}
	}
}

// TestMutatorErrors exercises the in-place mutation API's validation.
func TestMutatorErrors(t *testing.T) {
	p := NewProblem()
	x := p.AddBoundedVariable(1, 1)
	if err := p.AddConstraint([]int{x}, []float64{1}, LE, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.SetCost(-1, 0); err == nil {
		t.Error("SetCost(-1) accepted")
	}
	if err := p.SetCost(1, 0); err == nil {
		t.Error("SetCost out of range accepted")
	}
	if err := p.SetConstraintRHS(1, 0); err == nil {
		t.Error("SetConstraintRHS out of range accepted")
	}
	if err := p.SetCost(x, -5); err != nil {
		t.Errorf("valid SetCost rejected: %v", err)
	}
	if err := p.SetConstraintRHS(0, 3); err != nil {
		t.Errorf("valid SetConstraintRHS rejected: %v", err)
	}
	if got := p.ConstraintCoefs(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("ConstraintCoefs(0) = %v, want [1]", got)
	}
	sol, err := p.SolveWS(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(sol.X[x], 1, 1e-9) {
		t.Errorf("x = %v, want 1 (cost -5 pushes to upper bound)", sol.X[x])
	}
}

// TestWorkspaceShapeChange reuses one workspace across problems of different
// sizes — buffers must regrow without corrupting results.
func TestWorkspaceShapeChange(t *testing.T) {
	ws := NewWorkspace()
	rng := rand.New(rand.NewSource(5))
	for _, dims := range [][2]int{{2, 2}, {5, 4}, {3, 2}} {
		costs := make([]float64, dims[0]*dims[1])
		for i := range costs {
			costs[i] = rng.Float64() * 10
		}
		fresh := buildRandomTransport(t, dims[0], dims[1], costs)
		want, err := fresh.SolveWS(nil)
		if err != nil {
			t.Fatal(err)
		}
		reused := buildRandomTransport(t, dims[0], dims[1], costs)
		got, err := reused.SolveWS(ws)
		if err != nil {
			t.Fatal(err)
		}
		if got.Objective != want.Objective {
			t.Fatalf("dims %v: objective %x (ws) vs %x (fresh)", dims, got.Objective, want.Objective)
		}
	}
}

// solveBothWays solves p on the given (already used) workspace and afresh,
// and fails unless the two agree bit for bit: a workspace carries storage
// from one solve to the next, never a basis.
func solveBothWays(t *testing.T, label string, p *Problem, ws *Workspace) *Solution {
	t.Helper()
	want, wantErr := p.SolveWS(nil)
	got, err := p.SolveWS(ws)
	if !errors.Is(err, wantErr) {
		t.Fatalf("%s: workspace error %v, fresh error %v", label, err, wantErr)
	}
	if err != nil {
		return got
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) || got.Iterations != want.Iterations {
		t.Fatalf("%s: workspace objective %x in %d pivots, fresh %x in %d",
			label, got.Objective, got.Iterations, want.Objective, want.Iterations)
	}
	for j := range want.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
			t.Fatalf("%s: x[%d] = %x (workspace) vs %x (fresh)", label, j, got.X[j], want.X[j])
		}
	}
	return got
}

// TestWarmDriftAgreesWithCold re-solves random bounded LPs with LE and GE
// rows on one workspace while costs drift every step and RHS every other
// step: each re-solve must equal a cold solve bit for bit.
func TestWarmDriftAgreesWithCold(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randBoundedProblem(rng)
		ws := NewWorkspace()
		solveBothWays(t, "initial", p, ws)
		for step := 0; step < 8; step++ {
			for j := 0; j < len(p.costs); j++ {
				if err := p.SetCost(j, rng.Float64()*10-5); err != nil {
					t.Fatal(err)
				}
			}
			if step%2 == 1 {
				for i := 0; i < len(p.constraints); i++ {
					if err := p.SetConstraintRHS(i, p.constraints[i].RHS*(0.7+0.6*rng.Float64())); err != nil {
						t.Fatal(err)
					}
				}
			}
			solveBothWays(t, "drift", p, ws)
		}
	}
}

// TestWarmEqualityRowsAgree flips which variable of an equality row is cheap
// between two solves on one workspace.
func TestWarmEqualityRowsAgree(t *testing.T) {
	p := NewProblem()
	p.AddBoundedVariable(1, 1)
	p.AddBoundedVariable(2, 1)
	if err := p.AddConstraint([]int{0, 1}, []float64{1, 1}, EQ, 1); err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	solveBothWays(t, "initial", p, ws)
	if err := p.SetCost(0, 5); err != nil { // now x2 is the cheap one
		t.Fatal(err)
	}
	if sol := solveBothWays(t, "flipped", p, ws); math.Abs(sol.Objective-2) > 1e-9 {
		t.Fatalf("objective %v, want 2", sol.Objective)
	}
}

// TestWarmFallsBackOnMatrixChange rewrites a constraint coefficient between
// solves on one workspace.
func TestWarmFallsBackOnMatrixChange(t *testing.T) {
	p := NewProblem()
	p.AddBoundedVariable(-1, 5)
	p.AddBoundedVariable(-2, 5)
	if err := p.AddConstraint([]int{0, 1}, []float64{1, 1}, LE, 6); err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	solveBothWays(t, "initial", p, ws)
	p.ConstraintCoefs(0)[1] = 2
	solveBothWays(t, "matrix change", p, ws)
	if err := p.SetCost(0, -3); err != nil {
		t.Fatal(err)
	}
	solveBothWays(t, "cost change", p, ws)
}

// TestWarmInfeasibleFallsBackCold makes a solved problem infeasible and then
// feasible again on one workspace: the infeasible solve must report
// ErrInfeasible, and the recovery must equal a cold solve.
func TestWarmInfeasibleFallsBackCold(t *testing.T) {
	p := NewProblem()
	p.AddBoundedVariable(1, 1)
	p.AddBoundedVariable(1, 1)
	if err := p.AddConstraint([]int{0, 1}, []float64{1, 1}, EQ, 1); err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	solveBothWays(t, "initial", p, ws)
	// RHS beyond the variable bounds: infeasible.
	if err := p.SetConstraintRHS(0, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SolveWS(ws); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if err := p.SetConstraintRHS(0, 1); err != nil {
		t.Fatal(err)
	}
	if sol := solveBothWays(t, "recovered", p, ws); math.Abs(sol.Objective-1) > 1e-9 {
		t.Fatalf("recovered objective %v, want 1", sol.Objective)
	}
}

// TestWarmExplicitIterLimitSurfacesOnWarmPath gives a re-solve on a used
// workspace a one-pivot budget: it must surface ErrIterLimit, and lifting
// the budget must give the cold answer.
func TestWarmExplicitIterLimitSurfacesOnWarmPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randBoundedProblem(rng)
	ws := NewWorkspace()
	solveBothWays(t, "initial", p, ws)
	for j := 0; j < len(p.costs); j++ {
		if err := p.SetCost(j, -10*(1+rng.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.SetIterLimit(1); err != nil {
		t.Fatal(err)
	}
	sol, err := p.SolveWS(ws)
	if !errors.Is(err, ErrIterLimit) {
		t.Fatalf("one-pivot budget: err = %v, want ErrIterLimit", err)
	}
	if sol == nil || sol.Status != StatusIterLimit {
		t.Fatalf("sol = %+v, want StatusIterLimit", sol)
	}
	if err := p.SetIterLimit(0); err != nil {
		t.Fatal(err)
	}
	solveBothWays(t, "recovered", p, ws)
}
