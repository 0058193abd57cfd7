package mec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClassString(t *testing.T) {
	tests := []struct {
		c    Class
		want string
	}{
		{Macro, "macro"},
		{Micro, "micro"},
		{Femto, "femto"},
		{RemoteDC, "remote-dc"},
		{Class(0), "Class(0)"},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Errorf("Class(%d).String() = %q, want %q", int(tt.c), got, tt.want)
		}
	}
}

func TestDefaultParamsMatchPaper(t *testing.T) {
	// Section VI-A ranges.
	m := DefaultParams(Macro)
	if m.CapacityMin != 8000 || m.CapacityMax != 16000 {
		t.Errorf("macro capacity = [%v,%v], want [8000,16000]", m.CapacityMin, m.CapacityMax)
	}
	if m.UnitDelayMin != 30 || m.UnitDelayMax != 50 {
		t.Errorf("macro delay = [%v,%v], want [30,50]", m.UnitDelayMin, m.UnitDelayMax)
	}
	if m.RadiusM != 100 || m.TransmitPowerW != 40 {
		t.Errorf("macro radius/power = %v/%v, want 100/40", m.RadiusM, m.TransmitPowerW)
	}
	mi := DefaultParams(Micro)
	if mi.UnitDelayMin != 10 || mi.UnitDelayMax != 20 || mi.RadiusM != 30 || mi.TransmitPowerW != 5 {
		t.Errorf("micro params wrong: %+v", mi)
	}
	f := DefaultParams(Femto)
	if f.CapacityMin != 1000 || f.CapacityMax != 2000 || f.UnitDelayMin != 5 || f.UnitDelayMax != 10 {
		t.Errorf("femto params wrong: %+v", f)
	}
	if f.RadiusM != 15 || f.TransmitPowerW != 0.1 {
		t.Errorf("femto radius/power = %v/%v, want 15/0.1", f.RadiusM, f.TransmitPowerW)
	}
	dc := DefaultParams(RemoteDC)
	if dc.UnitDelayMin != 50 || dc.UnitDelayMax != 100 {
		t.Errorf("remote DC delay = [%v,%v], want [50,100]", dc.UnitDelayMin, dc.UnitDelayMax)
	}
}

func TestDelayProcessSampleClamped(t *testing.T) {
	d := DelayProcess{Mean: 10, Jitter: 100, Min: 5, Max: 15}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		v := d.Sample(rng)
		if v < 5 || v > 15 {
			t.Fatalf("sample %v outside [5,15]", v)
		}
	}
}

func TestDelayProcessMeanConverges(t *testing.T) {
	d := DelayProcess{Mean: 12, Jitter: 3, Min: 0, Max: 100}
	rng := rand.New(rand.NewSource(2))
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += d.Sample(rng)
	}
	if got := sum / n; math.Abs(got-12) > 0.1 {
		t.Errorf("empirical mean = %v, want ~12", got)
	}
}

func TestCovers(t *testing.T) {
	bs := BaseStation{X: 0, Y: 0, RadiusM: 10}
	if !bs.Covers(3, 4) { // dist 5
		t.Error("point at distance 5 not covered by radius 10")
	}
	if bs.Covers(30, 40) {
		t.Error("point at distance 50 covered by radius 10")
	}
	if !bs.Covers(10, 0) { // boundary
		t.Error("boundary point not covered")
	}
}

func TestNetworkLinksAndNeighbors(t *testing.T) {
	n := NewNetwork("test")
	rng := rand.New(rand.NewSource(3))
	a := n.AddStation(NewStation(Macro, 0, 0, DefaultParams(Macro), rng))
	b := n.AddStation(NewStation(Femto, 1, 1, DefaultParams(Femto), rng))
	c := n.AddStation(NewStation(Femto, 2, 2, DefaultParams(Femto), rng))
	if err := n.AddLink(a, b, 1, 100); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink(b, c, 1, 100); err != nil {
		t.Fatal(err)
	}
	if got := n.Degree(b); got != 2 {
		t.Errorf("degree(b) = %d, want 2", got)
	}
	if got := n.Degree(a); got != 1 {
		t.Errorf("degree(a) = %d, want 1", got)
	}
	if err := n.AddLink(a, a, 1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := n.AddLink(a, 99, 1, 1); err == nil {
		t.Error("unknown station accepted")
	}
}

func TestStationsCovering(t *testing.T) {
	n := NewNetwork("test")
	n.AddStation(BaseStation{X: 0, Y: 0, RadiusM: 10})
	n.AddStation(BaseStation{X: 100, Y: 100, RadiusM: 10})
	got := n.StationsCovering(1, 1)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("StationsCovering(1,1) = %v, want [0]", got)
	}
	if got := n.StationsCovering(500, 500); got != nil {
		t.Errorf("StationsCovering(500,500) = %v, want nil", got)
	}
}

func TestShortestLatency(t *testing.T) {
	n := NewNetwork("test")
	for i := 0; i < 4; i++ {
		n.AddStation(BaseStation{})
	}
	// 0-1 (1ms), 1-2 (1ms), 0-2 (5ms), 3 isolated.
	if err := n.AddLink(0, 1, 1, 100); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink(1, 2, 1, 100); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink(0, 2, 5, 100); err != nil {
		t.Fatal(err)
	}
	dist := n.ShortestLatency(0)
	if dist[2] != 2 {
		t.Errorf("dist[2] = %v, want 2 (via station 1)", dist[2])
	}
	if !math.IsInf(dist[3], 1) {
		t.Errorf("dist[3] = %v, want +Inf", dist[3])
	}
	if n.ShortestLatency(-1) != nil {
		t.Error("ShortestLatency(-1) should return nil")
	}
}

func TestSampleDelaysIndexedByID(t *testing.T) {
	n := NewNetwork("test")
	rng := rand.New(rand.NewSource(4))
	n.AddStation(NewStation(Femto, 0, 0, DefaultParams(Femto), rng))
	n.AddStation(NewStation(Macro, 0, 0, DefaultParams(Macro), rng))
	d := n.SampleDelays(rng)
	if len(d) != 2 {
		t.Fatalf("len = %d, want 2", len(d))
	}
	if d[0] < 5 || d[0] > 10 {
		t.Errorf("femto delay %v outside [5,10]", d[0])
	}
	if d[1] < 30 || d[1] > 50 {
		t.Errorf("macro delay %v outside [30,50]", d[1])
	}
}

func TestPropertyNewStationWithinClassRanges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, c := range []Class{Macro, Micro, Femto} {
			p := DefaultParams(c)
			bs := NewStation(c, 1, 2, p, rng)
			if bs.CapacityMHz < p.CapacityMin || bs.CapacityMHz > p.CapacityMax {
				return false
			}
			if bs.Delay.Mean < p.UnitDelayMin || bs.Delay.Mean > p.UnitDelayMax {
				return false
			}
			if bs.X != 1 || bs.Y != 2 || bs.Class != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTotalCapacity(t *testing.T) {
	n := NewNetwork("test")
	n.AddStation(BaseStation{CapacityMHz: 100})
	n.AddStation(BaseStation{CapacityMHz: 250})
	if got := n.TotalCapacity(); got != 350 {
		t.Errorf("TotalCapacity = %v, want 350", got)
	}
}
