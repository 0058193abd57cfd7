package caching

import (
	"math"
	"math/rand"
	"testing"

	"github.com/mecsim/l4e/internal/flow/flowref"
)

// Differential coverage: solveFlow solves the lowered min-cost-flow
// instance with the network simplex, cold or warm from a carried basis, and
// must reach the optimum the successive-shortest-paths referee
// (internal/flow/flowref) reaches. The comparable quantity is the flow
// objective — the amortised per-unit cost both solvers minimise — not
// Fractional.Objective, which is recomputed in LP terms (y = max x) and can
// differ between distinct optimal vertices of the same polytope.

// amortisedCost recomputes the min-cost-flow objective from a solution's X:
// sum over assignments of x * (AssignCost + amortised instantiation). Two
// optimal solutions of the same lowered instance agree on this to float
// tolerance even when their X matrices differ.
func amortisedCost(p *Problem, f *Fractional) float64 {
	total := 0.0
	for l := range p.Requests {
		k := p.Requests[l].Service
		for i, x := range f.X[l] {
			if x > 0 {
				total += x * (p.AssignCost(l, i) + p.InstDelayMS[i][k])
			}
		}
	}
	return total
}

// coldSSP lowers p to a min-cost flow exactly as lowerFlow does (same nodes,
// edges, edge order and per-unit costs), solves it with the SSP referee, and
// lifts the result as extractFlow and solveFlow do.
func coldSSP(p *Problem) (*Fractional, error) {
	L, N := len(p.Requests), p.NumStations
	g := flowref.NewGraph(2 + L + N)
	asg := make([]int, L*N)
	total := 0.0
	for l, r := range p.Requests {
		supply := r.Volume * p.CUnit
		total += supply
		if _, err := g.AddEdge(0, 1+l, supply, 0); err != nil {
			return nil, err
		}
		for i := 0; i < N; i++ {
			perUnit := (p.AssignCost(l, i) + p.InstDelayMS[i][r.Service]) / supply
			id, err := g.AddEdge(1+l, 1+L+i, supply, perUnit)
			if err != nil {
				return nil, err
			}
			asg[l*N+i] = id
		}
	}
	for i := 0; i < N; i++ {
		if _, err := g.AddEdge(1+L+i, 1+L+N, p.CapacityMHz[i], 0); err != nil {
			return nil, err
		}
	}
	if _, err := g.MinCostFlow(0, 1+L+N, total); err != nil {
		return nil, err
	}
	frac := NewWorkspace().result(L, N, p.NumServices)
	for l, r := range p.Requests {
		supply := r.Volume * p.CUnit
		for i := 0; i < N; i++ {
			x := g.Flow(asg[l*N+i]) / supply
			if x < 1e-12 {
				continue
			}
			frac.X[l][i] = x
			frac.Y[r.Service][i] = math.Max(frac.Y[r.Service][i], x)
		}
	}
	frac.Objective = p.fracObjective(frac)
	return frac, nil
}

// TestPropertyFlowEnginesAgree solves ~200 random feasible instances with the
// production network simplex and the cold SSP reference: identical amortised
// optimal cost to 1e-9, and the simplex solution satisfies every ILP
// invariant the SSP solution does.
func TestPropertyFlowEnginesAgree(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randProblem(rng, true)

		ssp, err := coldSSP(p)
		if err != nil {
			t.Fatalf("seed %d: ssp engine: %v", seed, err)
		}
		sspCost := amortisedCost(p, ssp)

		spx, err := p.solveFlow(NewWorkspace())
		if err != nil {
			t.Fatalf("seed %d: simplex engine: %v", seed, err)
		}
		checkSolutionShape(t, p, spx, "simplex engine")
		checkCapacities(t, p, spx, "simplex engine")
		if spx.Stats.Iterations <= 0 {
			t.Fatalf("seed %d: simplex solve reported %d pivots", seed, spx.Stats.Iterations)
		}
		if !spx.Stats.BasisRebuilt {
			t.Fatalf("seed %d: cold simplex solve did not report a basis rebuild", seed)
		}

		spxCost := amortisedCost(p, spx)
		if math.Abs(spxCost-sspCost) > 1e-9*(1+math.Abs(sspCost)) {
			t.Fatalf("seed %d: amortised cost %v (simplex) vs %v (ssp)", seed, spxCost, sspCost)
		}
	}
}

// TestPropertyLadderSimplexNeverFails throws the existing hostile set — the
// same generator and seed range as TestPropertyLadderNeverFails — at one
// incremental workspace, the way OL_GD drives its ladder: the network
// simplex's basis is carried from each instance into the next, across
// infeasible slots and fallbacks. The ladder contract is unchanged: no errors
// ever, valid shapes, consistent bookkeeping, and whenever the ladder settles
// on the flow rung it agrees with the cold SSP reference on the amortised
// cost.
func TestPropertyLadderSimplexNeverFails(t *testing.T) {
	sawFallback := false
	ws := NewWorkspace()
	for seed := int64(1000); seed < 1200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randProblem(rng, false)

		f, err := p.Solve(ws)
		if err != nil {
			t.Fatalf("seed %d: simplex-engine ladder failed: %v", seed, err)
		}
		checkSolutionShape(t, p, f, "simplex ladder")
		checkLadderBookkeeping(t, p, f.Stats, seed)
		if f.Stats.Fallbacks == 0 {
			checkCapacities(t, p, f, "simplex ladder")
		} else {
			sawFallback = true
		}

		if f.Stats.Solver == SolverFlow {
			ref, err := coldSSP(p)
			if err != nil {
				t.Fatalf("seed %d: flow rung solved but the SSP reference failed: %v", seed, err)
			}
			a, b := amortisedCost(p, f), amortisedCost(p, ref)
			if math.Abs(a-b) > 1e-9*(1+math.Abs(b)) {
				t.Fatalf("seed %d: flow-rung amortised cost %v (simplex) vs %v (ssp)", seed, a, b)
			}
		}
	}
	if !sawFallback {
		t.Error("hostile set never exercised a fallback rung")
	}
}

// TestPropertyIncrementalSimplexDriftAgreesWithCold mirrors the incremental
// drift property on the flow rung alone: one incremental workspace rides a
// drifting sequence — delay drift, volume jitter, occasional shape
// changes, quiet slots — and every step must match a cold SSP solve on the
// amortised cost. The suite must also actually exercise the warm-basis path:
// quiet slots re-solve warm too.
func TestPropertyIncrementalSimplexDriftAgreesWithCold(t *testing.T) {
	warm, rebuilt := 0, 0
	for seed := int64(4000); seed < 4150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		N := 2 + rng.Intn(5)
		L := 2 + rng.Intn(10)
		if rng.Intn(3) == 0 {
			L, N = 25+rng.Intn(15), 9+rng.Intn(3)
		}
		K := 1 + rng.Intn(4)
		p := randomProblem(rng, L, N, K)
		vol0 := make([]float64, L)
		for l := range vol0 {
			vol0[l] = p.Requests[l].Volume
		}
		// Feasibility headroom across the whole drift (volumes are capped at
		// 1.5x base, appended requests below volume 1).
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
			if step > 0 && rng.Float64() > 0.15 {
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

			inc, err := p.solveFlow(ws)
			if err != nil {
				t.Fatalf("seed %d step %d: incremental simplex: %v", seed, step, err)
			}
			checkSolutionShape(t, p, inc, "incremental simplex")
			for i, u := range stationLoads(p, inc) {
				if u > p.CapacityMHz[i]+1e-6*(1+p.CapacityMHz[i]) {
					t.Fatalf("seed %d step %d: station %d carries %v of %v capacity",
						seed, step, i, u, p.CapacityMHz[i])
				}
			}
			cold, err := coldSSP(p)
			if err != nil {
				t.Fatalf("seed %d step %d: cold ssp: %v", seed, step, err)
			}
			a, b := amortisedCost(p, inc), amortisedCost(p, cold)
			if math.Abs(a-b) > 1e-6*(1+math.Abs(b)) {
				t.Fatalf("seed %d step %d (warm=%v rebuilt=%v): amortised cost %v incremental vs %v cold-ssp",
					seed, step, inc.Stats.WarmStarted, inc.Stats.BasisRebuilt, a, b)
			}
			if inc.Stats.WarmStarted {
				warm++
			}
			if inc.Stats.BasisRebuilt && step > 0 {
				rebuilt++
			}
		}
	}
	if warm < 350 {
		t.Fatalf("drift sequences produced %d warm simplex solves; generator too tame", warm)
	}
	t.Logf("warm=%d mid-sequence rebuilds=%d", warm, rebuilt)
}
