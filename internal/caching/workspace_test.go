package caching

import (
	"math/rand"
	"testing"
)

// compareFractional fails the test unless the two solutions are bit-identical
// (objective and every X/Y entry).
func compareFractional(t *testing.T, label string, got, want *Fractional) {
	t.Helper()
	if got.Objective != want.Objective {
		t.Fatalf("%s: objective %x (ws) vs %x (fresh)", label, got.Objective, want.Objective)
	}
	for l := range want.X {
		for i := range want.X[l] {
			if got.X[l][i] != want.X[l][i] {
				t.Fatalf("%s: X[%d][%d] = %x (ws) vs %x (fresh)", label, l, i, got.X[l][i], want.X[l][i])
			}
		}
	}
	for k := range want.Y {
		for i := range want.Y[k] {
			if got.Y[k][i] != want.Y[k][i] {
				t.Fatalf("%s: Y[%d][%d] = %x (ws) vs %x (fresh)", label, k, i, got.Y[k][i], want.Y[k][i])
			}
		}
	}
}

// driftDelays perturbs the per-station unit delays the way a simulated slot
// does, leaving the problem shape untouched.
func driftDelays(rng *rand.Rand, p *Problem) {
	for i := range p.UnitDelayMS {
		p.UnitDelayMS[i] = 5 + rng.Float64()*40
	}
}

// TestSolveLPExactWSBitIdenticalAcrossSlots runs the simplex path over a
// sequence of delay-drifting slots with one shared workspace and checks each
// solve matches a fresh-workspace solve bit for bit.
func TestSolveLPExactWSBitIdenticalAcrossSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := randomProblem(rng, 6, 4, 3)
	ws := NewWorkspace()
	for slot := 0; slot < 6; slot++ {
		if slot > 0 {
			driftDelays(rng, p)
		}
		want, err := p.solveExact(NewWorkspace())
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.solveExact(ws)
		if err != nil {
			t.Fatal(err)
		}
		compareFractional(t, "exact", got, want)
		if wantReuse := slot > 0; got.Stats.WorkspaceReused != wantReuse {
			t.Fatalf("slot %d: WorkspaceReused = %v, want %v", slot, got.Stats.WorkspaceReused, wantReuse)
		}
	}
}

// TestSolveLPFlowWSBitIdenticalAcrossSlots is the same check for the
// min-cost-flow path. The workspace drops its carried basis before each slot
// (ResetWarm), so the check pins that reusing graph and basis storage never
// changes the arithmetic of a cold solve.
func TestSolveLPFlowWSBitIdenticalAcrossSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	p := randomProblem(rng, 8, 5, 3)
	ws := NewWorkspace()
	for slot := 0; slot < 6; slot++ {
		if slot > 0 {
			driftDelays(rng, p)
		}
		want, err := p.solveFlow(NewWorkspace())
		if err != nil {
			t.Fatal(err)
		}
		ws.ResetWarm()
		got, err := p.solveFlow(ws)
		if err != nil {
			t.Fatal(err)
		}
		compareFractional(t, "flow", got, want)
		if wantReuse := slot > 0; got.Stats.WorkspaceReused != wantReuse {
			t.Fatalf("slot %d: WorkspaceReused = %v, want %v", slot, got.Stats.WorkspaceReused, wantReuse)
		}
		if got.Stats.WarmStarted {
			t.Fatalf("slot %d: WarmStarted after ResetWarm", slot)
		}
	}
}

// TestWorkspaceRebuildsOnShapeChange feeds one workspace problems of varying
// (L, N, K) and service patterns; every shape change must force a rebuild and
// still produce fresh-identical answers.
func TestWorkspaceRebuildsOnShapeChange(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ws := NewWorkspace()
	shapes := [][3]int{{5, 3, 2}, {7, 4, 3}, {5, 3, 2}, {5, 3, 3}}
	for si, sh := range shapes {
		p := randomProblem(rng, sh[0], sh[1], sh[2])
		want, err := p.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Solve(ws)
		if err != nil {
			t.Fatal(err)
		}
		compareFractional(t, "shape", got, want)
		if got.Stats.WorkspaceReused {
			// randomProblem redraws services, so even repeated shapes rebuild
			// unless the request service pattern happens to repeat — with these
			// seeds it never does for the exact path, and the flow path only
			// keys on (L, N). Either way correctness holds; only flag an
			// unexpected reuse when the shape itself changed.
			if si > 0 && sh != shapes[si-1] {
				t.Fatalf("shape %v reused workspace from shape %v", sh, shapes[si-1])
			}
		}
	}
}

// TestSolveLPExactWSServicePatternChange verifies the simplex reuse path
// notices a service-pattern change (constraint-6 columns move) even when
// (L, N, K) are unchanged.
func TestSolveLPExactWSServicePatternChange(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	p := randomProblem(rng, 6, 4, 3)
	ws := NewWorkspace()
	if _, err := p.solveExact(ws); err != nil {
		t.Fatal(err)
	}
	p.Requests[2].Service = (p.Requests[2].Service + 1) % p.NumServices
	want, err := p.solveExact(NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.solveExact(ws)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.WorkspaceReused {
		t.Fatal("service-pattern change did not force a rebuild")
	}
	compareFractional(t, "service-change", got, want)
}
