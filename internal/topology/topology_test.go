package topology

import (
	"testing"
	"testing/quick"

	"github.com/mecsim/l4e/internal/mec"
)

func TestGTITMSizes(t *testing.T) {
	for _, n := range []int{20, 50, 100, 200} {
		net, err := GTITM(n, 42)
		if err != nil {
			t.Fatalf("GTITM(%d): %v", n, err)
		}
		if net.NumStations() != n {
			t.Errorf("GTITM(%d) has %d stations", n, net.NumStations())
		}
		if !IsConnected(net) {
			t.Errorf("GTITM(%d) not connected", n)
		}
	}
}

func TestGTITMTierMix(t *testing.T) {
	net, err := GTITM(100, 7)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[mec.Class]int{}
	for i := range net.Stations {
		counts[net.Stations[i].Class]++
	}
	if counts[mec.Macro] == 0 || counts[mec.Micro] == 0 || counts[mec.Femto] == 0 {
		t.Errorf("tier counts = %v, want all tiers present", counts)
	}
	if counts[mec.Femto] <= counts[mec.Macro] {
		t.Errorf("femto (%d) should outnumber macro (%d)", counts[mec.Femto], counts[mec.Macro])
	}
}

func TestGTITMDeterministic(t *testing.T) {
	a, err := GTITM(60, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GTITM(60, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Links) != len(b.Links) {
		t.Fatalf("link counts differ: %d vs %d", len(a.Links), len(b.Links))
	}
	for i := range a.Stations {
		if a.Stations[i].X != b.Stations[i].X || a.Stations[i].Delay.Mean != b.Stations[i].Delay.Mean {
			t.Fatalf("station %d differs between same-seed runs", i)
		}
	}
}

func TestGTITMSeedsDiffer(t *testing.T) {
	a, err := GTITM(60, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GTITM(60, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Stations {
		if a.Stations[i].Delay.Mean != b.Stations[i].Delay.Mean {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical delay means")
	}
}

func TestGTITMErrors(t *testing.T) {
	if _, err := GTITM(1, 0); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := GTITM(10, 0, WithConnectProb(1.5)); err == nil {
		t.Error("p=1.5 accepted")
	}
	if _, err := GTITM(10, 0, withMix(Mix{MacroFrac: 0.9, MicroFrac: 0.9})); err == nil {
		t.Error("mix summing > 1 accepted")
	}
}

func TestGTITMOptions(t *testing.T) {
	net, err := GTITM(30, 5, WithConnectProb(0), withArea(500), withMix(Mix{MacroFrac: 0.1, MicroFrac: 0.2}))
	if err != nil {
		t.Fatal(err)
	}
	// With p=0 only backbone links exist: n - nMacro spokes + macro ring.
	if !IsConnected(net) {
		t.Error("backbone-only network not connected")
	}
}

func TestAS1755Shape(t *testing.T) {
	net, err := AS1755(11)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.NumStations(); got != 87 {
		t.Errorf("AS1755 has %d nodes, want 87", got)
	}
	if got := len(net.Links); got != 161 {
		t.Errorf("AS1755 has %d links, want 161", got)
	}
	if !IsConnected(net) {
		t.Error("AS1755 not connected")
	}
	counts := map[mec.Class]int{}
	for i := range net.Stations {
		counts[net.Stations[i].Class]++
	}
	if counts[mec.Macro] != 9 || counts[mec.Micro] != 26 || counts[mec.Femto] != 52 {
		t.Errorf("tier counts = %v, want 9/26/52", counts)
	}
}

func TestAS1755HasBottlenecks(t *testing.T) {
	net, err := AS1755(3)
	if err != nil {
		t.Fatal(err)
	}
	// Bottleneck links: regional uplinks at 300 Mbps with 8-14 ms latency.
	bottlenecks := 0
	for _, l := range net.Links {
		if l.BandwidthMbps <= 300 && l.LatencyMS >= 8 {
			bottlenecks++
		}
	}
	if bottlenecks < 10 {
		t.Errorf("found %d bottleneck links, want >= 10", bottlenecks)
	}
}

func TestPropertyGTITMAlwaysConnected(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := 10 + int(size)%150
		net, err := GTITM(n, seed)
		if err != nil {
			return false
		}
		return IsConnected(net) && net.NumStations() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestIsConnectedEmptyAndSplit(t *testing.T) {
	if IsConnected(mec.NewNetwork("empty")) {
		t.Error("empty network reported connected")
	}
	n := mec.NewNetwork("split")
	n.AddStation(mec.BaseStation{})
	n.AddStation(mec.BaseStation{})
	if IsConnected(n) {
		t.Error("two isolated stations reported connected")
	}
}

// withMix and withArea set generator knobs production code leaves at their
// defaults.
func withMix(m Mix) Option         { return func(c *config) { c.mix = m } }
func withArea(side float64) Option { return func(c *config) { c.areaM = side } }
