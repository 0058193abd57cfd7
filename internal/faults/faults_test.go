package faults

import (
	"testing"

	"github.com/mecsim/l4e/internal/mec"
	"github.com/mecsim/l4e/internal/topology"
)

func testNet(t *testing.T) *mec.Network {
	t.Helper()
	net, err := topology.GTITM(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// snapshot copies the parts of an Effect a test compares across runs.
func snapshot(e *Effect) ([]float64, []float64, float64, int) {
	return append([]float64(nil), e.CapacityFactor...),
		append([]float64(nil), e.DelayFactor...),
		e.DemandFactor, e.Injected
}

func TestScheduleDeterministicAcrossResets(t *testing.T) {
	net := testNet(t)
	sched, err := Parse("outage:0.1:3,regional:0.1:2,brownout:0.1:0.5:2,spike:0.1:4:2,surge:0.1:2:3,feedback:0.2:0.1", net, 42)
	if err != nil {
		t.Fatal(err)
	}
	const T = 30
	type slot struct {
		cap, del []float64
		dem      float64
		inj      int
		drop     []bool
	}
	record := func() []slot {
		sched.Reset()
		out := make([]slot, T)
		for tt := 0; tt < T; tt++ {
			e := sched.Apply(tt)
			out[tt].cap, out[tt].del, out[tt].dem, out[tt].inj = snapshot(e)
			out[tt].drop = append([]bool(nil), e.DropFeedback...)
		}
		return out
	}
	a, b := record(), record()
	for tt := 0; tt < T; tt++ {
		if a[tt].dem != b[tt].dem || a[tt].inj != b[tt].inj {
			t.Fatalf("slot %d: demand/injected diverged across resets", tt)
		}
		for i := range a[tt].cap {
			if a[tt].cap[i] != b[tt].cap[i] || a[tt].del[i] != b[tt].del[i] || a[tt].drop[i] != b[tt].drop[i] {
				t.Fatalf("slot %d station %d: effect diverged across resets", tt, i)
			}
		}
	}
}

func TestRegionalOutageTakesDownWholeRegion(t *testing.T) {
	net := testNet(t)
	// Rate 1: a region goes down every slot.
	r, err := NewRegionalOutage(net, 1, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	regions := r.regions
	if len(regions) == 0 {
		t.Fatal("no regions derived")
	}
	// At least one region must be a real cluster (macro + covered cells).
	multi := false
	for _, reg := range regions {
		if len(reg) > 1 {
			multi = true
		}
		if net.Stations[reg[0]].Class != mec.Macro {
			t.Fatalf("region center %d is %v, want macro", reg[0], net.Stations[reg[0]].Class)
		}
	}
	if !multi {
		t.Fatal("every region is a single station — outages are not correlated")
	}

	sched, err := NewSchedule(net.NumStations(), r)
	if err != nil {
		t.Fatal(err)
	}
	e := sched.Apply(0)
	if e.Injected == 0 {
		t.Fatal("rate-1 regional outage injected nothing")
	}
	// Find the dark region: every member of some region must be at zero.
	found := false
	for _, reg := range regions {
		all := true
		for _, i := range reg {
			if e.CapacityFactor[i] != 0 {
				all = false
				break
			}
		}
		if all {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no region fully down despite rate-1 injection")
	}
}

func TestBrownoutIsFractional(t *testing.T) {
	net := testNet(t)
	b, err := NewBrownout(1, 0.4, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewSchedule(net.NumStations(), b)
	if err != nil {
		t.Fatal(err)
	}
	e := sched.Apply(0)
	for i, f := range e.CapacityFactor {
		if f != 0.4 {
			t.Fatalf("station %d capacity factor %v, want 0.4", i, f)
		}
	}
	if e.Injected == 0 {
		t.Error("rate-1 brownout injected nothing")
	}
}

func TestBlackoutWindow(t *testing.T) {
	net := testNet(t)
	bo, err := NewBlackout(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewSchedule(net.NumStations(), bo)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 6; tt++ {
		e := sched.Apply(tt)
		dark := tt >= 2 && tt < 4
		for i, f := range e.CapacityFactor {
			if dark && f != 0 {
				t.Fatalf("slot %d station %d factor %v during blackout", tt, i, f)
			}
			if !dark && f != 1 {
				t.Fatalf("slot %d station %d factor %v outside blackout", tt, i, f)
			}
		}
	}
}

func TestDelaySpikeAndSurgeCompose(t *testing.T) {
	net := testNet(t)
	sp, err := NewDelaySpike(1, 4, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	su, err := NewDemandSurge(1, 3, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewSchedule(net.NumStations(), sp, su)
	if err != nil {
		t.Fatal(err)
	}
	e := sched.Apply(0)
	if e.DemandFactor != 3 {
		t.Errorf("demand factor %v, want 3", e.DemandFactor)
	}
	for i, f := range e.DelayFactor {
		if f != 4 {
			t.Fatalf("station %d delay factor %v, want 4", i, f)
		}
	}
	if !e.Active() {
		t.Error("composed effect reported inactive")
	}
}

func TestZeroRateInjectorsAreInert(t *testing.T) {
	net := testNet(t)
	sched, err := Parse("outage:0,regional:0,brownout:0,spike:0,feedback:0,surge:0", net, 9)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 20; tt++ {
		if e := sched.Apply(tt); e.Active() {
			t.Fatalf("slot %d: zero-rate schedule injected a fault", tt)
		}
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	net := testNet(t)
	for _, spec := range []string{
		"bogus:0.1",
		"outage",           // missing rate
		"outage:2",         // rate > 1
		"outage:0.1:0",     // down < 1
		"outage:x",         // non-numeric
		"brownout:0.1:1.5", // factor >= 1
		"spike:0.1:0.5",    // factor <= 1
		"feedback:1.5",     // prob > 1
		"surge:0.1:1",      // factor <= 1
		"blackout:-1",      // negative slot
		"outage:0.1:1:9",   // too many params
	} {
		if _, err := Parse(spec, net, 1); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	// Empty spec parses to an empty (inert) schedule.
	sched, err := Parse("", net, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.injs) != 0 {
		t.Error("empty spec produced a non-empty schedule")
	}
}
