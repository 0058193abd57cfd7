package caching

import (
	"math"
	"math/rand"
	"testing"
)

// copyFractional deep-copies a workspace-aliased solution so it survives the
// next solve on the same workspace.
func copyFractional(f *Fractional) *Fractional {
	out := &Fractional{Objective: f.Objective, Stats: f.Stats}
	out.X = make([][]float64, len(f.X))
	for l := range f.X {
		out.X[l] = append([]float64(nil), f.X[l]...)
	}
	out.Y = make([][]float64, len(f.Y))
	for k := range f.Y {
		out.Y[k] = append([]float64(nil), f.Y[k]...)
	}
	return out
}

// TestIncrementalUnchangedSkipBitIdentical feeds an incremental workspace the
// same slot twice on both backends: the second solve must be skipped with
// reason "unchanged" and return the cold solution bit for bit. This is the
// strongest guarantee tier — skipping an unchanged slot is provably exact
// because the solvers are deterministic.
func TestIncrementalUnchangedSkipBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name    string
		L, N, K int
	}{
		{"exact", 6, 4, 3},
		{"flow", 30, 8, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			p := randomProblem(rng, tc.L, tc.N, tc.K)
			fresh, err := p.Solve(NewWorkspace())
			if err != nil {
				t.Fatal(err)
			}
			ws := NewWorkspace()
			first, err := p.Solve(ws)
			if err != nil {
				t.Fatal(err)
			}
			// The first solve on a workspace is cold and must equal a fresh one.
			compareFractional(t, "first-vs-fresh", first, fresh)
			want := copyFractional(first)

			second, err := p.Solve(ws)
			if err != nil {
				t.Fatal(err)
			}
			if !second.Stats.Skipped {
				t.Fatal("unchanged slot not skipped")
			}
			if second.Stats.WarmStarted || second.Stats.Iterations != 0 {
				t.Fatalf("skip did solver work: warm=%v iterations=%d",
					second.Stats.WarmStarted, second.Stats.Iterations)
			}
			compareFractional(t, "skip-vs-cold", second, want)
		})
	}
}

// TestIncrementalCertificateSkip drifts only the costs of stations the
// optimal flow does not use: the carried basis stays optimal, so pricing
// finds no entering arc — the warm solve certifies it and re-solves with zero
// pivots — and the repriced solution must match cold solves on the drifted
// instance, the production one and the SSP reference alike.
func TestIncrementalCertificateSkip(t *testing.T) {
	L, N, K := 12, 4, 2
	p := &Problem{
		NumStations: N,
		NumServices: K,
		CUnit:       10,
		CapacityMHz: []float64{2000, 100, 100, 100},
		UnitDelayMS: []float64{1, 50, 50, 50},
		InstDelayMS: make([][]float64, N),
	}
	for i := 0; i < N; i++ {
		p.InstDelayMS[i] = make([]float64, K)
	}
	rng := rand.New(rand.NewSource(5))
	for l := 0; l < L; l++ {
		p.Requests = append(p.Requests, RequestSpec{ID: l, Service: l % K, Volume: 1 + 3*rng.Float64()})
	}

	ws := NewWorkspace()
	if _, err := p.solveFlow(ws); err != nil {
		t.Fatal(err)
	}
	// Station 0 is strictly dominant, so stations 1..3 carry no flow: their
	// assignment arcs sit nonbasic at zero, and raising such an arc's cost
	// can only grow its reduced cost. The carried basis therefore stays
	// optimal.
	for i := 1; i < N; i++ {
		p.UnitDelayMS[i] += 0.5
	}
	got, err := p.solveFlow(ws)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Stats.WarmStarted || got.Stats.BasisRebuilt || got.Stats.Iterations != 0 {
		t.Fatalf("cost-only drift off the optimal routing not certified by the carried basis: %+v", got.Stats)
	}
	cold, err := p.solveFlow(NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := coldSSP(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []*Fractional{cold, ref} {
		if math.Abs(got.Objective-want.Objective) > 1e-9*(1+math.Abs(want.Objective)) {
			t.Fatalf("certified objective %v, cold %v", got.Objective, want.Objective)
		}
	}
}

// TestIncrementalRepairReroutesChangedDemand changes one request's volume
// between slots: the solve must re-route it from the carried basis (warm, not
// skipped) and agree with the cold SSP reference.
func TestIncrementalRepairReroutesChangedDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := randomProblem(rng, 12, 4, 2)
	ws := NewWorkspace()
	if _, err := p.solveFlow(ws); err != nil {
		t.Fatal(err)
	}
	p.Requests[3].Volume += 1
	got, err := p.solveFlow(ws)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Stats.WarmStarted || got.Stats.Skipped {
		t.Fatalf("volume change did not take the warm path: warm=%v skip=%v",
			got.Stats.WarmStarted, got.Stats.Skipped)
	}
	cold, err := coldSSP(p)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := amortisedCost(p, got), amortisedCost(p, cold); math.Abs(a-b) > 1e-9*(1+math.Abs(b)) {
		t.Fatalf("re-routed amortised cost %v, cold SSP %v", a, b)
	}
}

// TestIncrementalChaosSequenceSurvivesFaults runs a fault-injection slot
// sequence against one incremental workspace: drift, then an outage that
// zeroes most capacity (forcing the ladder down to greedy), then recovery.
// Every slot the flow rung solves must reach the cold SSP reference's LP
// objective within 1e-9 relative. After the outage, warm state must not be
// stale — the first recovered solve is cold and bit-identical to fresh, and
// later drift slots warm-solve again.
func TestIncrementalChaosSequenceSurvivesFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := randomProblem(rng, 30, 8, 3)
	savedCaps := append([]float64(nil), p.CapacityMHz...)

	ws := NewWorkspace()
	solve := func(step string) *Fractional {
		f, err := p.Solve(ws)
		if err != nil {
			t.Fatalf("%s: ladder: %v", step, err)
		}
		checkSolutionShape(t, p, f, step)
		if f.Stats.Solver == SolverFlow {
			ref, err := coldSSP(p)
			if err != nil {
				t.Fatalf("%s: cold SSP reference: %v", step, err)
			}
			if math.Abs(f.Objective-ref.Objective) > 1e-9*math.Abs(ref.Objective) {
				t.Fatalf("%s: LP objective %v, cold SSP %v (stats %+v)", step, f.Objective, ref.Objective, f.Stats)
			}
		}
		return f
	}

	solve("warmup")
	for step := 0; step < 3; step++ {
		driftDelays(rng, p)
		f := solve("pre-fault drift")
		if !f.Stats.WarmStarted && !f.Stats.Skipped {
			t.Fatalf("pre-fault drift step %d ran cold: %+v", step, f.Stats)
		}
	}

	// Outage: total capacity drops below demand. The flow rung must fail and
	// the greedy rung must still produce a shaped solution.
	for i := range p.CapacityMHz {
		p.CapacityMHz[i] = 0
	}
	p.CapacityMHz[0] = 10
	faulted := solve("outage")
	if faulted.Stats.Solver != SolverGreedy || faulted.Stats.Fallbacks == 0 {
		t.Fatalf("outage slot solved by %s with %d fallbacks, want greedy fallback",
			faulted.Stats.Solver, faulted.Stats.Fallbacks)
	}

	// Recovery: no warm state may survive the fault — the next solve is cold
	// and must match a fresh solve bit for bit.
	copy(p.CapacityMHz, savedCaps)
	recovered := solve("recovery")
	if recovered.Stats.WarmStarted || recovered.Stats.Skipped {
		t.Fatalf("first post-outage solve reused state: %+v", recovered.Stats)
	}
	fresh, err := p.Solve(NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	compareFractional(t, "recovery-vs-fresh", recovered, fresh)

	// Post-recovery drift warm-solves again (solve checks each slot against
	// the cold reference).
	for step := 0; step < 3; step++ {
		driftDelays(rng, p)
		f := solve("post-fault drift")
		if f.Stats.Solver != SolverFlow {
			t.Fatalf("post-fault step %d solved by %s, want the flow rung", step, f.Stats.Solver)
		}
		if step > 0 && !f.Stats.WarmStarted && !f.Stats.Skipped {
			t.Fatalf("post-fault step %d still cold: %+v", step, f.Stats)
		}
	}
}
