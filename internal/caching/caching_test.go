package caching

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// smallProblem builds a hand-checkable instance: 2 requests, 2 stations,
// 1 service, generous capacity.
func smallProblem() *Problem {
	return &Problem{
		NumStations: 2,
		NumServices: 1,
		Requests: []RequestSpec{
			{ID: 0, Service: 0, Volume: 2, RegisteredBS: 0},
			{ID: 1, Service: 0, Volume: 3, RegisteredBS: 1},
		},
		CapacityMHz: []float64{1000, 1000},
		CUnit:       10,
		UnitDelayMS: []float64{5, 20},
		InstDelayMS: [][]float64{{4}, {4}},
	}
}

func TestSolveLPExactPrefersFastStation(t *testing.T) {
	p := smallProblem()
	f, err := p.solveExact(NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	// Station 0 is 4x faster with room for both: everything goes there.
	for l := range p.Requests {
		if f.X[l][0] < 0.999 {
			t.Errorf("X[%d][0] = %v, want ~1", l, f.X[l][0])
		}
	}
	if f.Y[0][0] < 0.999 {
		t.Errorf("Y[0][0] = %v, want ~1", f.Y[0][0])
	}
	// Objective: (2*5 + 3*5 + 4)/2 = 14.5.
	if math.Abs(f.Objective-14.5) > 1e-6 {
		t.Errorf("objective = %v, want 14.5", f.Objective)
	}
}

func TestSolveLPExactRespectsCapacity(t *testing.T) {
	p := smallProblem()
	// Station 0 can now hold only request 0 (2 units * 10 = 20 MHz).
	p.CapacityMHz = []float64{20, 1000}
	f, err := p.solveExact(NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	load0 := f.X[0][0]*2*10 + f.X[1][0]*3*10
	if load0 > 20+1e-6 {
		t.Errorf("station 0 load = %v exceeds capacity 20", load0)
	}
	for l := range p.Requests {
		if s := f.X[l][0] + f.X[l][1]; math.Abs(s-1) > 1e-6 {
			t.Errorf("request %d assignment sums to %v", l, s)
		}
	}
}

func TestSolveLPFlowMatchesExactOnEasyInstances(t *testing.T) {
	// With one request per service, amortised instantiation equals the LP's
	// per-instance charge, so flow and exact should agree tightly.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		L := 2 + rng.Intn(4)
		N := 2 + rng.Intn(4)
		p := &Problem{
			NumStations: N,
			NumServices: L, // one service per request
			CUnit:       10,
		}
		for l := 0; l < L; l++ {
			p.Requests = append(p.Requests, RequestSpec{ID: l, Service: l, Volume: 1 + rng.Float64()*3})
		}
		p.CapacityMHz = make([]float64, N)
		p.UnitDelayMS = make([]float64, N)
		p.InstDelayMS = make([][]float64, N)
		for i := 0; i < N; i++ {
			p.CapacityMHz[i] = 500 + rng.Float64()*500
			p.UnitDelayMS[i] = 5 + rng.Float64()*40
			p.InstDelayMS[i] = make([]float64, L)
			for k := 0; k < L; k++ {
				p.InstDelayMS[i][k] = 2 + rng.Float64()*10
			}
		}
		exact, err := p.solveExact(NewWorkspace())
		if err != nil {
			t.Fatal(err)
		}
		flowSol, err := p.solveFlow(NewWorkspace())
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(exact.Objective - flowSol.Objective); diff > 0.05*exact.Objective+1e-6 {
			t.Errorf("trial %d: exact %v vs flow %v (diff %v)", trial, exact.Objective, flowSol.Objective, diff)
		}
	}
}

func TestSolveLPFlowUpperBoundsExact(t *testing.T) {
	// With shared services the flow objective must be >= exact LP (amortised
	// instantiation over-charges shared instances) but within a modest factor.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 15; trial++ {
		L, N, K := 6, 4, 2
		p := randomProblem(rng, L, N, K)
		exact, err := p.solveExact(NewWorkspace())
		if err != nil {
			t.Fatal(err)
		}
		fl, err := p.solveFlow(NewWorkspace())
		if err != nil {
			t.Fatal(err)
		}
		if fl.Objective < exact.Objective-1e-6 {
			t.Errorf("trial %d: flow %v below exact LP %v", trial, fl.Objective, exact.Objective)
		}
		if fl.Objective > exact.Objective*1.6+1 {
			t.Errorf("trial %d: flow %v too far above exact %v", trial, fl.Objective, exact.Objective)
		}
	}
}

func randomProblem(rng *rand.Rand, L, N, K int) *Problem {
	p := &Problem{
		NumStations: N,
		NumServices: K,
		CUnit:       10,
	}
	for l := 0; l < L; l++ {
		p.Requests = append(p.Requests, RequestSpec{ID: l, Service: rng.Intn(K), Volume: 1 + rng.Float64()*3})
	}
	p.CapacityMHz = make([]float64, N)
	p.UnitDelayMS = make([]float64, N)
	p.InstDelayMS = make([][]float64, N)
	for i := 0; i < N; i++ {
		p.CapacityMHz[i] = 300 + rng.Float64()*500
		p.UnitDelayMS[i] = 5 + rng.Float64()*40
		p.InstDelayMS[i] = make([]float64, K)
		for k := 0; k < K; k++ {
			p.InstDelayMS[i][k] = 2 + rng.Float64()*10
		}
	}
	return p
}

func TestCandidates(t *testing.T) {
	p := smallProblem()
	f := &Fractional{X: [][]float64{{0.8, 0.2}, {0.4, 0.6}}}
	c := p.Candidates(f, 0.5)
	if len(c[0]) != 1 || c[0][0] != 0 {
		t.Errorf("candidates[0] = %v, want [0]", c[0])
	}
	if len(c[1]) != 1 || c[1][0] != 1 {
		t.Errorf("candidates[1] = %v, want [1]", c[1])
	}
	// Low threshold includes both.
	c = p.Candidates(f, 0.1)
	if len(c[0]) != 2 || len(c[1]) != 2 {
		t.Errorf("candidates = %v, want both stations each", c)
	}
	// Threshold above all fractions falls back to argmax.
	c = p.Candidates(f, 0.95)
	if len(c[0]) != 1 || c[0][0] != 0 {
		t.Errorf("fallback candidates[0] = %v, want [0]", c[0])
	}
}

func TestEvaluate(t *testing.T) {
	p := smallProblem()
	a := &Assignment{BS: []int{0, 1}}
	actual := []float64{10, 30}
	avg, feasible, err := p.Evaluate(a, actual)
	if err != nil {
		t.Fatal(err)
	}
	if !feasible {
		t.Error("generous capacities reported infeasible")
	}
	// (2*10 + 3*30 + inst@0 + inst@1)/2 = (20+90+4+4)/2 = 59.
	if math.Abs(avg-59) > 1e-9 {
		t.Errorf("avg delay = %v, want 59", avg)
	}
}

func TestEvaluateSharedInstanceChargedOnce(t *testing.T) {
	p := smallProblem()
	a := &Assignment{BS: []int{0, 0}}
	avg, _, err := p.Evaluate(a, []float64{10, 30})
	if err != nil {
		t.Fatal(err)
	}
	// (2*10 + 3*10 + 4)/2 = 27: one instance, one instantiation charge.
	if math.Abs(avg-27) > 1e-9 {
		t.Errorf("avg delay = %v, want 27", avg)
	}
}

func TestEvaluateDetectsOverload(t *testing.T) {
	p := smallProblem()
	p.CapacityMHz = []float64{20, 1000} // request 1 alone needs 30 at station 0
	a := &Assignment{BS: []int{0, 0}}
	_, feasible, err := p.Evaluate(a, []float64{10, 30})
	if err != nil {
		t.Fatal(err)
	}
	if feasible {
		t.Error("overloaded station reported feasible")
	}
}

func TestEvaluateErrors(t *testing.T) {
	p := smallProblem()
	if _, _, err := p.Evaluate(&Assignment{BS: []int{0}}, []float64{1, 2}); err == nil {
		t.Error("short assignment accepted")
	}
	if _, _, err := p.Evaluate(&Assignment{BS: []int{0, 5}}, []float64{1, 2}); err == nil {
		t.Error("invalid station accepted")
	}
	if _, _, err := p.Evaluate(&Assignment{BS: []int{0, 1}}, []float64{1}); err == nil {
		t.Error("short delay vector accepted")
	}
}

func TestAccessLatencyInCost(t *testing.T) {
	p := smallProblem()
	p.AccessLatencyMS = [][]float64{{0, 100}, {100, 0}}
	if got := p.AssignCost(0, 1); math.Abs(got-(2*20+100)) > 1e-9 {
		t.Errorf("AssignCost(0,1) = %v, want 140", got)
	}
	// LP avoids the remote station despite equal processing delay.
	p.UnitDelayMS = []float64{10, 10}
	f, err := p.solveExact(NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	if f.X[0][0] < 0.999 || f.X[1][1] < 0.999 {
		t.Errorf("LP ignored access latency: X = %v", f.X)
	}
}

func TestValidateRejectsBadProblems(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Problem)
	}{
		{"no stations", func(p *Problem) { p.NumStations = 0 }},
		{"no services", func(p *Problem) { p.NumServices = 0 }},
		{"no requests", func(p *Problem) { p.Requests = nil }},
		{"capacity mismatch", func(p *Problem) { p.CapacityMHz = []float64{1} }},
		{"delay mismatch", func(p *Problem) { p.UnitDelayMS = []float64{1} }},
		{"inst mismatch", func(p *Problem) { p.InstDelayMS = [][]float64{{1}} }},
		{"inst row mismatch", func(p *Problem) { p.InstDelayMS = [][]float64{{1, 2}, {1, 2}} }},
		{"zero cunit", func(p *Problem) { p.CUnit = 0 }},
		{"bad service", func(p *Problem) { p.Requests[0].Service = 9 }},
		{"zero volume", func(p *Problem) { p.Requests[0].Volume = 0 }},
		{"lat mismatch", func(p *Problem) { p.AccessLatencyMS = [][]float64{{0, 0}} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := smallProblem()
			tt.mutate(p)
			if err := p.Validate(); err == nil {
				t.Error("invalid problem accepted")
			}
		})
	}
}

func TestSolveLPInfeasibleCapacity(t *testing.T) {
	p := smallProblem()
	p.CapacityMHz = []float64{10, 10} // total demand 50 MHz > 20
	if _, err := p.solveExact(NewWorkspace()); err == nil {
		t.Error("infeasible exact LP accepted")
	}
	if _, err := p.solveFlow(NewWorkspace()); err == nil {
		t.Error("infeasible flow LP accepted")
	}
}

// TestPropertyLPSolutionsAreDistributions checks sum_i x_li = 1 and
// 0 <= x <= 1 on random instances for both solvers.
func TestPropertyLPSolutionsAreDistributions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 3+rng.Intn(5), 2+rng.Intn(4), 1+rng.Intn(3))
		for _, solve := range []func(*Workspace) (*Fractional, error){p.solveExact, p.solveFlow} {
			f, err := solve(NewWorkspace())
			if err != nil {
				return false
			}
			for l := range p.Requests {
				s := 0.0
				for _, x := range f.X[l] {
					if x < -1e-9 || x > 1+1e-9 {
						return false
					}
					s += x
				}
				if math.Abs(s-1) > 1e-6 {
					return false
				}
			}
			// y >= x on the request's own service.
			for l := range p.Requests {
				k := p.Requests[l].Service
				for i, x := range f.X[l] {
					if f.Y[k][i] < x-1e-6 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCandidateSetsNeverEmpty guards Algorithm 1's sampling step.
func TestPropertyCandidateSetsNeverEmpty(t *testing.T) {
	f := func(seed int64, gammaByte uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 4, 3, 2)
		fr, err := p.Solve(NewWorkspace())
		if err != nil {
			return false
		}
		gamma := float64(gammaByte) / 255
		for _, set := range p.Candidates(fr, gamma) {
			if len(set) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSolveLPFlowLarge(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	p := randomProblem(rng, 100, 100, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.solveFlow(NewWorkspace()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveLPExactSmall(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	p := randomProblem(rng, 10, 8, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.solveExact(NewWorkspace()); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEvaluateOverloadDegradation(t *testing.T) {
	// Station 0 capacity 25 MHz; both requests there demand 50 MHz -> 2x
	// oversubscription doubles processing delay.
	p := smallProblem()
	p.CapacityMHz = []float64{25, 1000}
	a := &Assignment{BS: []int{0, 0}}
	avg, feasible, err := p.Evaluate(a, []float64{10, 30})
	if err != nil {
		t.Fatal(err)
	}
	if feasible {
		t.Error("overloaded slot reported feasible")
	}
	// (2*10*2 + 3*10*2 + 4)/2 = (40+60+4)/2 = 52.
	if math.Abs(avg-52) > 1e-9 {
		t.Errorf("avg delay = %v, want 52 (2x degradation)", avg)
	}
}

func TestEvaluateNoDegradationWhenFeasible(t *testing.T) {
	p := smallProblem()
	a := &Assignment{BS: []int{0, 0}}
	avg, feasible, err := p.Evaluate(a, []float64{10, 30})
	if err != nil {
		t.Fatal(err)
	}
	if !feasible {
		t.Error("feasible slot reported infeasible")
	}
	if math.Abs(avg-27) > 1e-9 {
		t.Errorf("avg delay = %v, want 27 (no degradation)", avg)
	}
}

func TestEvaluateWarmSkipsSurvivingInstances(t *testing.T) {
	p := smallProblem()
	a := &Assignment{BS: []int{0, 0}}
	// Cold start: instance (svc 0, st 0) charged.
	avg1, _, inst, err := p.EvaluateWarm(a, []float64{10, 30}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst) != 1 || !inst[[2]int{0, 0}] {
		t.Fatalf("instances = %v", inst)
	}
	// Same assignment next slot: instantiation waived.
	avg2, _, _, err := p.EvaluateWarm(a, []float64{10, 30}, inst)
	if err != nil {
		t.Fatal(err)
	}
	// Cold: (20+30+4)/2 = 27; warm: (20+30)/2 = 25.
	if math.Abs(avg1-27) > 1e-9 || math.Abs(avg2-25) > 1e-9 {
		t.Errorf("cold=%v warm=%v, want 27, 25", avg1, avg2)
	}
	// Moving the instance re-charges at the new station.
	b := &Assignment{BS: []int{1, 1}}
	avg3, _, _, err := p.EvaluateWarm(b, []float64{10, 30}, inst)
	if err != nil {
		t.Fatal(err)
	}
	// (2*30 + 3*30 + 4)/2 = 77.
	if math.Abs(avg3-77) > 1e-9 {
		t.Errorf("moved-instance delay = %v, want 77", avg3)
	}
}

// estimatedCost computes objective (3) of an integral assignment under the
// problem's theta estimates, the objective LocalSearch lowers.
func estimatedCost(p *Problem, a *Assignment) float64 {
	total := 0.0
	for l, i := range a.BS {
		total += p.AssignCost(l, i)
	}
	instances := a.Instances(p)
	for k := 0; k < p.NumServices; k++ {
		for i := 0; i < p.NumStations; i++ {
			if instances[[2]int{k, i}] {
				total += p.InstDelayMS[i][k]
			}
		}
	}
	return total / float64(len(p.Requests))
}

func TestLocalSearchImprovesBadAssignment(t *testing.T) {
	p := smallProblem()
	// Everything parked on the slow station 1.
	a := &Assignment{BS: []int{1, 1}}
	before := estimatedCost(p, a)
	moves, err := p.LocalSearch(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	after := estimatedCost(p, a)
	if moves == 0 {
		t.Fatal("no moves applied to an obviously bad assignment")
	}
	if after >= before {
		t.Errorf("cost did not improve: %v -> %v", before, after)
	}
	// Optimal for this instance: both on station 0.
	if a.BS[0] != 0 || a.BS[1] != 0 {
		t.Errorf("assignment = %v, want both on station 0", a.BS)
	}
}

func TestLocalSearchRespectsCapacity(t *testing.T) {
	p := smallProblem()
	p.CapacityMHz = []float64{20, 1000} // station 0 fits only request 0
	a := &Assignment{BS: []int{1, 1}}
	if _, err := p.LocalSearch(a, 0); err != nil {
		t.Fatal(err)
	}
	load0 := 0.0
	for l, i := range a.BS {
		if i == 0 {
			load0 += p.Requests[l].Volume * p.CUnit
		}
	}
	if load0 > 20+1e-9 {
		t.Errorf("local search overloaded station 0: %v", load0)
	}
}

func TestLocalSearchNoMoveOnOptimal(t *testing.T) {
	p := smallProblem()
	a := &Assignment{BS: []int{0, 0}}
	moves, err := p.LocalSearch(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if moves != 0 {
		t.Errorf("moved %d times from the optimum", moves)
	}
	if _, err := p.LocalSearch(&Assignment{BS: []int{0}}, 0); err == nil {
		t.Error("short assignment accepted")
	}
}

func TestPropertyLocalSearchNeverWorsens(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 5, 4, 2)
		a := &Assignment{BS: make([]int, 5)}
		for l := range a.BS {
			a.BS[l] = rng.Intn(4)
		}
		// Skip capacity-infeasible starts (local search assumes a feasible
		// incumbent).
		load := make([]float64, 4)
		for l, i := range a.BS {
			load[i] += p.Requests[l].Volume * p.CUnit
		}
		for i, u := range load {
			if u > p.CapacityMHz[i] {
				return true
			}
		}
		before := estimatedCost(p, a)
		if _, err := p.LocalSearch(a, 0); err != nil {
			return false
		}
		return estimatedCost(p, a) <= before+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
