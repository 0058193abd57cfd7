package algorithms

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/mecsim/l4e/internal/bandit"
	"github.com/mecsim/l4e/internal/caching"
	"github.com/mecsim/l4e/internal/mec"
	"github.com/mecsim/l4e/internal/obs"
)

// testProblem builds a 4-station, 6-request, 2-service instance with ample
// capacity. Station 0 is fastest.
func testProblem() *caching.Problem {
	p := &caching.Problem{
		NumStations: 4,
		NumServices: 2,
		CUnit:       10,
		CapacityMHz: []float64{500, 500, 500, 500},
		UnitDelayMS: []float64{5, 10, 20, 40},
		InstDelayMS: [][]float64{{3, 3}, {3, 3}, {3, 3}, {3, 3}},
	}
	for l := 0; l < 6; l++ {
		p.Requests = append(p.Requests, caching.RequestSpec{ID: l, Service: l % 2, Volume: 2})
	}
	return p
}

func testView(t int, p *caching.Problem) *SlotView {
	return &SlotView{T: t, Problem: p, DemandsGiven: true}
}

func TestRepairCapacityMovesOverflow(t *testing.T) {
	p := testProblem()
	p.CapacityMHz = []float64{25, 500, 500, 500} // station 0 fits one request (20)
	a := &caching.Assignment{BS: []int{0, 0, 0, 0, 0, 0}}
	if shed := repairCapacity(p, a); shed != 0 {
		t.Fatalf("feasible repair shed %d requests", shed)
	}
	load := make([]float64, 4)
	for l, i := range a.BS {
		load[i] += p.Requests[l].Volume * p.CUnit
	}
	for i, u := range load {
		if u > p.CapacityMHz[i]+1e-9 {
			t.Errorf("station %d overloaded after repair: %v > %v", i, u, p.CapacityMHz[i])
		}
	}
}

func TestRepairCapacityShedsWhenImpossible(t *testing.T) {
	p := testProblem()
	p.CapacityMHz = []float64{10, 10, 10, 10} // total 40 < demand 120
	a := &caching.Assignment{BS: []int{0, 0, 0, 0, 0, 0}}
	shed := repairCapacity(p, a)
	if shed == 0 {
		t.Error("impossible repair reported no shed requests")
	}
	// Every request must still land on a valid station.
	for l, i := range a.BS {
		if i < 0 || i >= p.NumStations {
			t.Errorf("request %d left on invalid station %d", l, i)
		}
	}
}

func TestSampleFromCandidatesRespectsSets(t *testing.T) {
	p := testProblem()
	frac := &caching.Fractional{X: make([][]float64, 6)}
	for l := range frac.X {
		frac.X[l] = []float64{0.7, 0.3, 0, 0}
	}
	candidates := make([][]int, 6)
	for l := range candidates {
		candidates[l] = []int{0, 1}
	}
	rng := rand.New(rand.NewSource(1))
	counts := map[int]int{}
	for trial := 0; trial < 300; trial++ {
		a := sampleFromCandidates(p, frac, candidates, rng)
		for _, i := range a.BS {
			if i != 0 && i != 1 {
				t.Fatalf("sampled station %d outside candidate set", i)
			}
			counts[i]++
		}
	}
	// Should roughly follow the 0.7/0.3 split.
	frac0 := float64(counts[0]) / float64(counts[0]+counts[1])
	if frac0 < 0.6 || frac0 > 0.8 {
		t.Errorf("station-0 pick fraction = %v, want ~0.7", frac0)
	}
}

func TestExploreOutsideCandidates(t *testing.T) {
	p := testProblem()
	candidates := make([][]int, 6)
	for l := range candidates {
		candidates[l] = []int{0}
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		a := exploreOutsideCandidates(p, candidates, rng)
		for _, i := range a.BS {
			if i == 0 {
				t.Fatal("exploration picked a candidate station")
			}
		}
	}
	// Full candidate set: falls back to candidates.
	full := make([][]int, 6)
	for l := range full {
		full[l] = []int{0, 1, 2, 3}
	}
	a := exploreOutsideCandidates(p, full, rng)
	for _, i := range a.BS {
		if i < 0 || i > 3 {
			t.Fatalf("invalid station %d", i)
		}
	}
}

func TestOLGDValidation(t *testing.T) {
	if _, err := NewOLGD(OLGDConfig{NumStations: 0, Gamma: 0.1, Schedule: bandit.ConstantSchedule{Value: 0.25}}); err == nil {
		t.Error("zero stations accepted")
	}
	if _, err := NewOLGD(OLGDConfig{NumStations: 3, Gamma: 2, Schedule: bandit.ConstantSchedule{Value: 0.25}}); err == nil {
		t.Error("gamma > 1 accepted")
	}
	if _, err := NewOLGD(OLGDConfig{NumStations: 3, Gamma: 0.1}); err == nil {
		t.Error("nil schedule accepted")
	}
	o, err := NewOLGD(DefaultOLGDConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	p := testProblem() // 4 stations vs policy built for 3
	if _, err := o.Decide(testView(0, p)); err == nil {
		t.Error("station-count mismatch accepted")
	}
}

func TestOLGDLearnsFastStation(t *testing.T) {
	// Environment: station delays (5, 10, 20, 40) with small noise. After
	// many slots, OL_GD should assign most requests to station 0 in
	// exploitation slots and its estimate for station 0 should approach 5.
	cfg := DefaultOLGDConfig(4)
	cfg.Seed = 3
	o, err := NewOLGD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	trueMeans := []float64{5, 10, 20, 40}
	for t2 := 0; t2 < 120; t2++ {
		p := testProblem()
		a, err := o.Decide(testView(t2, p))
		if err != nil {
			t.Fatal(err)
		}
		played := map[int]float64{}
		for _, i := range a.BS {
			played[i] = trueMeans[i] + rng.NormFloat64()
		}
		o.Observe(&Observation{T: t2, PlayedDelays: played})
	}
	if got := o.Arms().Mean(0); math.Abs(got-5) > 1.5 {
		t.Errorf("station-0 estimate = %v, want ~5", got)
	}
	// Exploitation slot: most requests on the fast station.
	// (Run a few Decides and take the best case to skim over exploration draws.)
	best := 0
	for trial := 0; trial < 8; trial++ {
		p := testProblem()
		a, err := o.Decide(testView(200+trial, p))
		if err != nil {
			t.Fatal(err)
		}
		on0 := 0
		for _, i := range a.BS {
			if i == 0 {
				on0++
			}
		}
		if on0 > best {
			best = on0
		}
	}
	if best < 4 {
		t.Errorf("at most %d/6 requests on the fast station after learning", best)
	}
}

func TestOLGDExplorationRate(t *testing.T) {
	// With epsilon = 1, every slot explores outside the candidate sets.
	cfg := DefaultOLGDConfig(4)
	cfg.Schedule = bandit.ConstantSchedule{Value: 1}
	cfg.Gamma = 0.5
	o, err := NewOLGD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Seed arms so station 0 is the clear candidate.
	for i, d := range []float64{1, 50, 50, 50} {
		o.Arms().Observe(i, d)
	}
	onCandidate := 0
	for trial := 0; trial < 30; trial++ {
		p := testProblem()
		a, err := o.Decide(testView(trial, p))
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range a.BS {
			if i == 0 {
				onCandidate++
			}
		}
	}
	if onCandidate > 0 {
		t.Errorf("epsilon=1 still placed %d requests on the candidate station", onCandidate)
	}
}

func TestGreedyGDStationCentric(t *testing.T) {
	g, err := NewGreedyGD([]float64{5, 10, 20, 40}, false)
	if err != nil {
		t.Fatal(err)
	}
	p := testProblem()
	a, err := g.Decide(testView(0, p))
	if err != nil {
		t.Fatal(err)
	}
	// Station-centric greedy: the fastest-believed station (0) claims one
	// service's tasks on its turn; the other service is fragmented onto the
	// next station even though station 0 had room — the myopia the paper
	// ascribes to Greedy_GD.
	for l, i := range a.BS {
		k := p.Requests[l].Service
		if k == 0 && i != 0 {
			t.Errorf("service-0 request %d on station %d, want 0", l, i)
		}
		if k == 1 && i != 1 {
			t.Errorf("service-1 request %d on station %d, want 1", l, i)
		}
	}
	if _, err := NewGreedyGD(nil, false); err == nil {
		t.Error("empty estimates accepted")
	}
}

func TestGreedyGDRespectsCapacity(t *testing.T) {
	g, err := NewGreedyGD([]float64{5, 10, 20, 40}, false)
	if err != nil {
		t.Fatal(err)
	}
	p := testProblem()
	p.CapacityMHz = []float64{40, 40, 40, 40} // two requests per station max
	a, err := g.Decide(testView(0, p))
	if err != nil {
		t.Fatal(err)
	}
	load := make([]float64, 4)
	for l, i := range a.BS {
		load[i] += p.Requests[l].Volume * p.CUnit
	}
	for i, u := range load {
		if u > 40+1e-9 {
			t.Errorf("station %d overloaded: %v", i, u)
		}
	}
}

func TestPriGDOrdersByCoverage(t *testing.T) {
	net := mec.NewNetwork("t")
	net.AddStation(mec.BaseStation{X: 0, Y: 0, RadiusM: 100, CapacityMHz: 100})
	net.AddStation(mec.BaseStation{X: 10, Y: 0, RadiusM: 100, CapacityMHz: 100})
	// Request 0 covered by both stations (priority 2), request 1 far away
	// (priority 0).
	xy := [][2]float64{{5, 0}, {500, 500}}
	pri, err := NewPriGD(net, xy, []float64{5, 50}, false)
	if err != nil {
		t.Fatal(err)
	}
	if pri.priority[0] != 2 || pri.priority[1] != 0 {
		t.Fatalf("priorities = %v, want [2 0]", pri.priority)
	}
	// Station 0 is faster but only fits ONE request: the high-priority
	// request gets it.
	p := &caching.Problem{
		NumStations: 2,
		NumServices: 1,
		CUnit:       10,
		CapacityMHz: []float64{20, 100},
		UnitDelayMS: []float64{5, 50},
		InstDelayMS: [][]float64{{1}, {1}},
		Requests: []caching.RequestSpec{
			{ID: 0, Service: 0, Volume: 2},
			{ID: 1, Service: 0, Volume: 2},
		},
	}
	a, err := pri.Decide(testView(0, p))
	if err != nil {
		t.Fatal(err)
	}
	if a.BS[0] != 0 || a.BS[1] != 1 {
		t.Errorf("assignment = %v, want high-priority request on station 0", a.BS)
	}
	if _, err := NewPriGD(mec.NewNetwork("e"), nil, nil, false); err == nil {
		t.Error("empty network accepted")
	}
}

func TestOracleUsesTrueDelays(t *testing.T) {
	o := NewOracle()
	p := testProblem()
	// Without injected delays: error.
	if _, err := o.Decide(testView(0, p)); err == nil {
		t.Error("oracle decided without true delays")
	}
	// True delays invert the estimates: station 3 is actually fastest.
	o.SetTrueDelays([]float64{40, 20, 10, 5})
	a, err := o.Decide(testView(0, p))
	if err != nil {
		t.Fatal(err)
	}
	for l, i := range a.BS {
		if i != 3 {
			t.Errorf("request %d on station %d, want 3", l, i)
		}
	}
}

func TestIndexOLGDVariants(t *testing.T) {
	for _, kind := range []IndexKind{IndexUCB, IndexThompson} {
		x, err := NewIndexOLGD(kind, 4, 0, 7)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(8))
		trueMeans := []float64{5, 10, 20, 40}
		for t2 := 0; t2 < 80; t2++ {
			p := testProblem()
			a, err := x.Decide(testView(t2, p))
			if err != nil {
				t.Fatal(err)
			}
			played := map[int]float64{}
			for _, i := range a.BS {
				played[i] = trueMeans[i] + rng.NormFloat64()*0.5
			}
			x.Observe(&Observation{T: t2, PlayedDelays: played})
		}
		// After learning, the final decision should focus on station 0.
		p := testProblem()
		a, err := x.Decide(testView(100, p))
		if err != nil {
			t.Fatal(err)
		}
		on0 := 0
		for _, i := range a.BS {
			if i == 0 {
				on0++
			}
		}
		if on0 < 4 {
			t.Errorf("%v: only %d/6 requests on fast station after learning", kind, on0)
		}
	}
	if _, err := NewIndexOLGD(IndexKind(99), 4, 0, 1); err == nil {
		t.Error("bad kind accepted")
	}
	if _, err := NewIndexOLGD(IndexUCB, 0, 0, 1); err == nil {
		t.Error("zero stations accepted")
	}
}

func TestIndexKindString(t *testing.T) {
	if IndexUCB.String() != "UCB" || IndexThompson.String() != "Thompson" {
		t.Error("IndexKind strings wrong")
	}
	if IndexKind(0).String() != "IndexKind(0)" {
		t.Error("invalid kind string wrong")
	}
}

// TestPropertyAssignmentsAlwaysFeasible fuzzes OL_GD decisions and checks
// capacity feasibility (post-repair) across random problems.
func TestPropertyAssignmentsAlwaysFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		cfg := DefaultOLGDConfig(n)
		cfg.Seed = seed
		o, err := NewOLGD(cfg)
		if err != nil {
			return false
		}
		p := &caching.Problem{
			NumStations: n,
			NumServices: 2,
			CUnit:       10,
			CapacityMHz: make([]float64, n),
			UnitDelayMS: make([]float64, n),
			InstDelayMS: make([][]float64, n),
		}
		for i := 0; i < n; i++ {
			p.CapacityMHz[i] = 200 + rng.Float64()*200
			p.InstDelayMS[i] = []float64{2, 2}
		}
		for l := 0; l < 5; l++ {
			p.Requests = append(p.Requests, caching.RequestSpec{ID: l, Service: l % 2, Volume: 1 + rng.Float64()*2})
		}
		a, err := o.Decide(testView(0, p))
		if err != nil {
			return false
		}
		load := make([]float64, n)
		for l, i := range a.BS {
			if i < 0 || i >= n {
				return false
			}
			load[i] += p.Requests[l].Volume * p.CUnit
		}
		for i, u := range load {
			if u > p.CapacityMHz[i]+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestOLGDPriors(t *testing.T) {
	cfg := DefaultOLGDConfig(3)
	cfg.Priors = []float64{1, 2} // wrong length
	if _, err := NewOLGD(cfg); err == nil {
		t.Error("mismatched priors accepted")
	}
	cfg.Priors = []float64{5, 10, 30}
	o, err := NewOLGD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range cfg.Priors {
		if got := o.Arms().Mean(i); got != want {
			t.Errorf("arm %d prior = %v, want %v", i, got, want)
		}
	}
}

func TestOLGDNameOverride(t *testing.T) {
	cfg := DefaultOLGDConfig(3)
	cfg.Name = "OL_GD/custom"
	o, err := NewOLGD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o.Name() != "OL_GD/custom" {
		t.Errorf("name = %q", o.Name())
	}
}

func TestOLGDLocalSearchVariantFeasible(t *testing.T) {
	cfg := DefaultOLGDConfig(4)
	cfg.LocalSearch = true
	cfg.Seed = 5
	o, err := NewOLGD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Tight capacities: local search must keep feasibility.
	for trial := 0; trial < 20; trial++ {
		p := testProblem()
		p.CapacityMHz = []float64{40, 40, 40, 40}
		a, err := o.Decide(testView(trial, p))
		if err != nil {
			t.Fatal(err)
		}
		load := make([]float64, 4)
		for l, i := range a.BS {
			load[i] += p.Requests[l].Volume * p.CUnit
		}
		for i, u := range load {
			if u > 40+1e-9 {
				t.Fatalf("trial %d: station %d overloaded (%v)", trial, i, u)
			}
		}
		o.Observe(&Observation{T: trial, PlayedDelays: map[int]float64{0: 5, 1: 10, 2: 20, 3: 40}})
	}
}

// TestObserveCountsAcceptedReadings feeds one valid and one corrupted (NaN)
// reading: the arms take only the valid one, and bandit.observations must
// count only what they took.
func TestObserveCountsAcceptedReadings(t *testing.T) {
	o, err := NewOLGD(DefaultOLGDConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	ob := obs.New(obs.Options{})
	o.SetObserver(ob)
	o.Observe(&Observation{T: 0, PlayedDelays: map[int]float64{0: 5, 1: math.NaN()}})
	snap := ob.Snapshot()
	if got := snap.Counters["bandit.observations"]; got != 1 {
		t.Errorf("bandit.observations = %d, want 1", got)
	}
	if got := o.arms.Count(1); got != 0 {
		t.Errorf("the NaN reading was taken: arm 1 count %d", got)
	}
}
