package caching

import (
	"math"
	"math/rand"
	"testing"
)

// Property-based coverage of the per-slot solvers: several hundred random
// instances per property, checked against the invariants of ILP (3)-(7)
// rather than hand-picked expected values. Every instance derives from a
// printable seed so a failure reproduces exactly.

// randProblem draws a random structurally-valid instance. When feasible is
// true, station capacities are scaled so total capacity exceeds total demand
// (LP-feasible, since requests may split across stations); otherwise
// capacities may be scarce, zeroed, or a total blackout — ladder territory.
func randProblem(rng *rand.Rand, feasible bool) *Problem {
	N := 2 + rng.Intn(7)  // stations
	L := 1 + rng.Intn(12) // requests
	K := 1 + rng.Intn(4)  // services
	if !feasible && rng.Intn(4) == 0 {
		// Occasionally jump past _exactVarLimit so the ladder's primary rung
		// is the flow backend, not the simplex.
		L = 25 + rng.Intn(20)
		N = 9 + rng.Intn(4)
	}
	p := &Problem{
		NumStations: N,
		NumServices: K,
		CUnit:       0.5 + 1.5*rng.Float64(),
		CapacityMHz: make([]float64, N),
		UnitDelayMS: make([]float64, N),
		InstDelayMS: make([][]float64, N),
	}
	totalDemand := 0.0
	for l := 0; l < L; l++ {
		vol := 0.1 + 9.9*rng.Float64()
		totalDemand += vol * p.CUnit
		p.Requests = append(p.Requests, RequestSpec{
			ID:           l,
			Service:      rng.Intn(K),
			Volume:       vol,
			RegisteredBS: rng.Intn(N),
		})
	}
	for i := 0; i < N; i++ {
		p.UnitDelayMS[i] = 1 + 49*rng.Float64()
		p.InstDelayMS[i] = make([]float64, K)
		for k := 0; k < K; k++ {
			p.InstDelayMS[i][k] = 20 * rng.Float64()
		}
		p.CapacityMHz[i] = rng.Float64()
	}
	capSum := sum(p.CapacityMHz)
	var scale float64
	if feasible {
		scale = totalDemand * (1.1 + 2*rng.Float64()) / capSum
	} else {
		// Anything from comfortable to heavily over-subscribed.
		scale = totalDemand * 2 * rng.Float64() / capSum
		for i := 0; i < N; i++ {
			if rng.Intn(5) == 0 {
				p.CapacityMHz[i] = 0 // faulted station
			}
		}
		if rng.Intn(20) == 0 {
			scale = 0 // total blackout
		}
	}
	for i := 0; i < N; i++ {
		p.CapacityMHz[i] *= scale
	}
	if rng.Intn(2) == 0 {
		p.AccessLatencyMS = make([][]float64, L)
		for l := 0; l < L; l++ {
			p.AccessLatencyMS[l] = make([]float64, N)
			for i := 0; i < N; i++ {
				p.AccessLatencyMS[l][i] = 10 * rng.Float64()
			}
		}
	}
	return p
}

// checkSolutionShape asserts the invariants every solver output must satisfy
// regardless of backend: finite values, x within [0,1], every request's
// volume fully assigned exactly once, and caching levels covering placements.
func checkSolutionShape(t *testing.T, p *Problem, f *Fractional, who string) {
	t.Helper()
	if math.IsNaN(f.Objective) || math.IsInf(f.Objective, 0) || f.Objective < 0 {
		t.Fatalf("%s: objective %v", who, f.Objective)
	}
	if len(f.X) != len(p.Requests) || len(f.Y) != p.NumServices {
		t.Fatalf("%s: X/Y shape %dx%d", who, len(f.X), len(f.Y))
	}
	for l := range p.Requests {
		rowSum := 0.0
		for i, x := range f.X[l] {
			if math.IsNaN(x) || x < -1e-9 || x > 1+1e-9 {
				t.Fatalf("%s: X[%d][%d] = %v", who, l, i, x)
			}
			rowSum += x
		}
		if math.Abs(rowSum-1) > 1e-6 {
			t.Fatalf("%s: request %d assigned %v of its volume, want exactly 1", who, l, rowSum)
		}
		k := p.Requests[l].Service
		for i, x := range f.X[l] {
			if f.Y[k][i] < x-1e-6 {
				t.Fatalf("%s: Y[%d][%d] = %v < X[%d][%d] = %v (constraint (6))",
					who, k, i, f.Y[k][i], l, i, x)
			}
		}
	}
	for k := range f.Y {
		for i, y := range f.Y[k] {
			if math.IsNaN(y) || y < -1e-9 {
				t.Fatalf("%s: Y[%d][%d] = %v", who, k, i, y)
			}
		}
	}
}

// stationLoads returns the compute load each station carries under f.
func stationLoads(p *Problem, f *Fractional) []float64 {
	load := make([]float64, p.NumStations)
	for l, req := range p.Requests {
		for i, x := range f.X[l] {
			load[i] += x * req.Volume * p.CUnit
		}
	}
	return load
}

// checkLadderBookkeeping checks that Stats.Fallbacks counts exactly the
// ladder rungs above Stats.Solver: exact, flow, greedy below the size-dispatch
// limit; flow, greedy above it.
func checkLadderBookkeeping(t *testing.T, p *Problem, st SolveStats, seed int64) {
	t.Helper()
	rungs := []SolverKind{SolverFlow, SolverGreedy}
	if len(p.Requests)*p.NumStations <= _exactVarLimit {
		rungs = append([]SolverKind{SolverSimplex}, rungs...)
	}
	if st.Fallbacks < 0 || st.Fallbacks >= len(rungs) || rungs[st.Fallbacks] != st.Solver {
		t.Fatalf("seed %d: solver %s after %d fallbacks on ladder %v", seed, st.Solver, st.Fallbacks, rungs)
	}
}

func checkCapacities(t *testing.T, p *Problem, f *Fractional, who string) {
	t.Helper()
	for i, u := range stationLoads(p, f) {
		if u > p.CapacityMHz[i]+1e-6 {
			t.Fatalf("%s: station %d carries %v MHz of %v capacity (constraint (5))",
				who, i, u, p.CapacityMHz[i])
		}
	}
}

// TestPropertyFeasibleBackendsAgree drives both relaxation backends over ~200
// random LP-feasible instances: each must satisfy the assignment, coupling,
// and capacity constraints, the flow objective must stay an upper bound on
// the exact LP within the amortisation error bound, and the size dispatch of
// Solve must pick the documented backend.
func TestPropertyFeasibleBackendsAgree(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randProblem(rng, true)

		exact, err := p.solveExact(NewWorkspace())
		if err != nil {
			t.Fatalf("seed %d: exact on feasible instance: %v", seed, err)
		}
		checkSolutionShape(t, p, exact, "exact")
		checkCapacities(t, p, exact, "exact")

		// The simplex objective must equal the objective recomputed from its
		// own X/Y under the problem's costs.
		if re := p.fracObjective(exact); math.Abs(re-exact.Objective) > 1e-6*math.Max(1, exact.Objective) {
			t.Fatalf("seed %d: exact objective %v but recomputed %v", seed, exact.Objective, re)
		}

		fl, err := p.solveFlow(NewWorkspace())
		if err != nil {
			t.Fatalf("seed %d: flow on feasible instance: %v", seed, err)
		}
		checkSolutionShape(t, p, fl, "flow")
		checkCapacities(t, p, fl, "flow")
		if fl.Objective < exact.Objective-1e-6 {
			t.Fatalf("seed %d: flow %v beat the exact LP %v", seed, fl.Objective, exact.Objective)
		}
		// The flow backend amortises instantiation delay per request, so its
		// objective can exceed the exact LP by at most the mean worst-case
		// per-request instantiation charge (the amortisation error bound).
		instBound := 0.0
		for _, req := range p.Requests {
			worst := 0.0
			for i := 0; i < p.NumStations; i++ {
				if d := p.InstDelayMS[i][req.Service]; d > worst {
					worst = d
				}
			}
			instBound += worst
		}
		instBound /= float64(len(p.Requests))
		if diff := fl.Objective - exact.Objective; diff > instBound+1e-6 {
			t.Fatalf("seed %d: flow %v vs exact %v: gap %v exceeds the amortisation bound %v",
				seed, fl.Objective, exact.Objective, diff, instBound)
		}

		// Size dispatch: small instances take the simplex, large the flow.
		dispatched, err := p.Solve(NewWorkspace())
		if err != nil {
			t.Fatalf("seed %d: Solve: %v", seed, err)
		}
		wantSolver := SolverFlow
		if len(p.Requests)*p.NumStations <= _exactVarLimit {
			wantSolver = SolverSimplex
		}
		if dispatched.Stats.Solver != wantSolver {
			t.Fatalf("seed %d: %d vars dispatched to %s, want %s",
				seed, len(p.Requests)*p.NumStations, dispatched.Stats.Solver, wantSolver)
		}
	}
}

// TestPropertyLadderNeverFails throws ~200 random instances — over-subscribed,
// fault-zeroed, total-blackout — at the degradation ladder: it must NEVER
// return an error, NaN, or a partially-assigned request, and its bookkeeping
// (Fallbacks, Solver) must be consistent. A clean ladder solve must
// also respect capacities; only the greedy shed rung may exceed them.
func TestPropertyLadderNeverFails(t *testing.T) {
	sawFallback := false
	for seed := int64(1000); seed < 1200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randProblem(rng, false)

		f, err := p.Solve(NewWorkspace())
		if err != nil {
			t.Fatalf("seed %d: ladder failed: %v", seed, err)
		}
		checkSolutionShape(t, p, f, "ladder")
		checkLadderBookkeeping(t, p, f.Stats, seed)
		if f.Stats.Fallbacks == 0 {
			checkCapacities(t, p, f, "ladder")
		} else {
			sawFallback = true
			if f.Stats.Solver != SolverGreedy && f.Stats.Solver != SolverFlow {
				t.Fatalf("seed %d: fell back to %s", seed, f.Stats.Solver)
			}
		}
	}
	if !sawFallback {
		t.Error("200 hostile instances never exercised a fallback rung; generator too tame")
	}
}

// TestPropertyIncrementalDriftAgreesWithCold drives 200 random drift
// sequences — per-station delay drift (the bandit estimates moving), volume
// jitter on a subset of requests, quiet slots, and occasional shape changes
// (service reassignments, requests appearing and disappearing) — through one
// incremental workspace, checking every step against a cold solve: objectives
// agree within solver tolerance and the ILP invariants hold. The sequences
// must also actually exercise the machinery: both warm solves and skips have
// to occur somewhere in the suite, or the generator has gone tame.
func TestPropertyIncrementalDriftAgreesWithCold(t *testing.T) {
	warm, skipped := 0, 0
	for seed := int64(3000); seed < 3200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		N := 2 + rng.Intn(5)
		L := 2 + rng.Intn(10)
		if rng.Intn(3) == 0 {
			// Flow-scale sequence: exercises the repair path, not the simplex
			// warm start.
			L, N = 25+rng.Intn(15), 9+rng.Intn(3)
		}
		K := 1 + rng.Intn(4)
		p := randomProblem(rng, L, N, K)
		vol0 := make([]float64, L)
		for l := range vol0 {
			vol0[l] = p.Requests[l].Volume
		}
		// Guarantee LP feasibility across the whole sequence: volumes never
		// exceed 1.5x their base and appended requests stay below volume 1.
		maxDemand := 6 * 1.5 * p.CUnit
		for _, v := range vol0 {
			maxDemand += 1.5 * v * p.CUnit
		}
		if s := sum(p.CapacityMHz); s < 1.3*maxDemand {
			f := 1.3 * maxDemand / s
			for i := range p.CapacityMHz {
				p.CapacityMHz[i] *= f
			}
		}

		ws := NewWorkspace()
		for step := 0; step < 6; step++ {
			if step > 0 && rng.Float64() > 0.15 { // ~15% of slots are quiet
				for i := range p.UnitDelayMS {
					p.UnitDelayMS[i] = math.Max(0.5, p.UnitDelayMS[i]*(0.9+0.2*rng.Float64()))
				}
				for l := range p.Requests {
					if rng.Float64() < 0.3 {
						jit := vol0[l] * (0.7 + 0.8*rng.Float64())
						p.Requests[l].Volume = math.Min(1.5*vol0[l], math.Max(0.1, jit))
					}
				}
				switch {
				case rng.Float64() < 0.05:
					p.Requests[rng.Intn(len(p.Requests))].Service = rng.Intn(K)
				case rng.Float64() < 0.05 && len(p.Requests) > 2:
					p.Requests = p.Requests[:len(p.Requests)-1]
					vol0 = vol0[:len(vol0)-1]
				case rng.Float64() < 0.05:
					v := 0.2 + 0.8*rng.Float64()
					p.Requests = append(p.Requests, RequestSpec{
						ID: len(p.Requests), Service: rng.Intn(K), Volume: v, RegisteredBS: rng.Intn(N)})
					vol0 = append(vol0, v)
				}
			}

			inc, err := p.Solve(ws)
			if err != nil {
				t.Fatalf("seed %d step %d: incremental: %v", seed, step, err)
			}
			checkSolutionShape(t, p, inc, "incremental")
			for i, u := range stationLoads(p, inc) {
				if u > p.CapacityMHz[i]+1e-6*(1+p.CapacityMHz[i]) {
					t.Fatalf("seed %d step %d: station %d carries %v of %v capacity",
						seed, step, i, u, p.CapacityMHz[i])
				}
			}
			cold, err := p.Solve(NewWorkspace())
			if err != nil {
				t.Fatalf("seed %d step %d: cold: %v", seed, step, err)
			}
			if math.Abs(inc.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
				t.Fatalf("seed %d step %d (%s, warm=%v skipped=%v): objective %v incremental vs %v cold",
					seed, step, inc.Stats.Solver, inc.Stats.WarmStarted, inc.Stats.Skipped,
					inc.Objective, cold.Objective)
			}
			if inc.Stats.WarmStarted {
				warm++
			}
			if inc.Stats.Skipped {
				skipped++
			}
		}
	}
	if warm == 0 || skipped == 0 {
		t.Fatalf("200 drift sequences produced %d warm solves and %d skips; generator too tame", warm, skipped)
	}
}

// TestPropertyWorkspaceReuseBitIdentical re-solves random feasible instances
// on a shared workspace and requires bit-identical objectives and fractions
// vs the fresh-allocation path — workspace reuse must change where buffers
// live, never the arithmetic.
func TestPropertyWorkspaceReuseBitIdentical(t *testing.T) {
	ws := NewWorkspace()
	for seed := int64(2000); seed < 2050; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randProblem(rng, true)
		fresh, err := p.Solve(NewWorkspace())
		if err != nil {
			t.Fatalf("seed %d: fresh: %v", seed, err)
		}
		reused, err := p.Solve(ws)
		if err != nil {
			t.Fatalf("seed %d: workspace: %v", seed, err)
		}
		if fresh.Objective != reused.Objective {
			t.Fatalf("seed %d: objective %v fresh vs %v reused", seed, fresh.Objective, reused.Objective)
		}
		for l := range fresh.X {
			for i := range fresh.X[l] {
				if fresh.X[l][i] != reused.X[l][i] {
					t.Fatalf("seed %d: X[%d][%d] %v fresh vs %v reused",
						seed, l, i, fresh.X[l][i], reused.X[l][i])
				}
			}
		}
	}
}
