package sim

import (
	"testing"

	"github.com/mecsim/l4e/internal/algorithms"
	"github.com/mecsim/l4e/internal/caching"
	"github.com/mecsim/l4e/internal/faults"
)

func TestFailureInjectionValidation(t *testing.T) {
	net, w := testEnv(t, 15, 8, 10)
	if _, err := faults.NewStationOutage(-0.1, 5, 1); err == nil {
		t.Error("negative failure rate accepted")
	}
	if _, err := faults.NewStationOutage(1.5, 5, 1); err == nil {
		t.Error("failure rate > 1 accepted")
	}
	if _, err := faults.NewStationOutage(0.1, -3, 1); err == nil {
		t.Error("negative down-slots accepted")
	}
	if _, err := NewRunner(net, w, Config{SolveBudget: -1}); err == nil {
		t.Error("negative SolveBudget accepted")
	}
	sched, err := faults.NewSchedule(net.NumStations()+1, mustOutage(t, 0.1, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(net, w, Config{Faults: sched}); err == nil {
		t.Error("fault schedule with wrong station count accepted")
	}
}

func mustOutage(t *testing.T, rate float64, down int, seed int64) *faults.StationOutage {
	t.Helper()
	o, err := faults.NewStationOutage(rate, down, seed)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// outageSchedule is a schedule of one i.i.d. station-outage injector over n
// stations.
func outageSchedule(t *testing.T, n int, rate float64, down int, seed int64) *faults.Schedule {
	t.Helper()
	sched, err := faults.NewSchedule(n, mustOutage(t, rate, down, seed))
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

func TestFailureInjectionZeroesCapacity(t *testing.T) {
	net, w := testEnv(t, 15, 8, 30)
	r, err := NewRunner(net, w, Config{Seed: 3, DemandsGiven: true,
		Faults: outageSchedule(t, net.NumStations(), 0.1, 3, 3)})
	if err != nil {
		t.Fatal(err)
	}
	probe := &failureProbe{}
	res, err := r.Run(probe)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedStationSlots == 0 {
		t.Fatal("no failures injected at rate 0.1 over 30 slots")
	}
	if !probe.sawZeroCapacity {
		t.Error("policy never saw a zero-capacity station despite failures")
	}
}

func TestNoFailuresWhenRateZero(t *testing.T) {
	net, w := testEnv(t, 15, 8, 20)
	r, err := NewRunner(net, w, Config{Seed: 3, DemandsGiven: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := algorithms.NewGreedyGD(histFor(net), false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedStationSlots != 0 {
		t.Errorf("failures injected with rate 0: %d", res.FailedStationSlots)
	}
}

func TestOLGDSurvivesFailures(t *testing.T) {
	// The learning policy must route around failed stations without error
	// and keep its delay bounded.
	net, w := testEnv(t, 25, 10, 40)
	r, err := NewRunner(net, w, Config{Seed: 5, DemandsGiven: true,
		Faults: outageSchedule(t, net.NumStations(), 0.05, 4, 5)})
	if err != nil {
		t.Fatal(err)
	}
	cfg := algorithms.DefaultOLGDConfig(net.NumStations())
	o, err := algorithms.NewOLGD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerSlotDelayMS) != 40 {
		t.Errorf("run truncated to %d slots", len(res.PerSlotDelayMS))
	}
}

func TestWarmCacheReducesDelay(t *testing.T) {
	net, w := testEnv(t, 20, 10, 25)
	run := func(warm bool) float64 {
		r, err := NewRunner(net, w, Config{Seed: 7, DemandsGiven: true, WarmCache: warm})
		if err != nil {
			t.Fatal(err)
		}
		g, err := algorithms.NewGreedyGD(histFor(net), false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgDelayMS
	}
	warm, cold := run(true), run(false)
	if warm >= cold {
		t.Errorf("warm cache (%v) not below cold cache (%v)", warm, cold)
	}
}

// failureProbe assigns everything to station 0 and records whether any view
// contained a zero-capacity station.
type failureProbe struct {
	sawZeroCapacity bool
}

func (p *failureProbe) Name() string { return "failure-probe" }

func (p *failureProbe) Decide(view *algorithms.SlotView) (*caching.Assignment, error) {
	for _, c := range view.Problem.CapacityMHz {
		if c == 0 {
			p.sawZeroCapacity = true
		}
	}
	// Always assign to the station with the largest capacity (never failed).
	best, bestCap := 0, -1.0
	for i, c := range view.Problem.CapacityMHz {
		if c > bestCap {
			best, bestCap = i, c
		}
	}
	a := &caching.Assignment{BS: make([]int, len(view.Problem.Requests))}
	for l := range a.BS {
		a.BS[l] = best
	}
	return a, nil
}

func (p *failureProbe) Observe(*algorithms.Observation) {}
