package workload

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/mecsim/l4e/internal/mec"
	"github.com/mecsim/l4e/internal/topology"
)

func testNet(t testing.TB) *mec.Network {
	t.Helper()
	net, err := topology.GTITM(40, 5)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestGenerateShape(t *testing.T) {
	net := testNet(t)
	cfg := DefaultConfig()
	w, err := Generate(net, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Requests) != cfg.NumRequests {
		t.Errorf("requests = %d, want %d", len(w.Requests), cfg.NumRequests)
	}
	if len(w.Services) != cfg.NumServices {
		t.Errorf("services = %d, want %d", len(w.Services), cfg.NumServices)
	}
	if len(w.Volumes) != cfg.Horizon {
		t.Errorf("volume rows = %d, want %d", len(w.Volumes), cfg.Horizon)
	}
	for t1, row := range w.Volumes {
		if len(row) != cfg.NumRequests {
			t.Fatalf("volumes[%d] has %d entries", t1, len(row))
		}
	}
	if len(w.InstDelayMS) != net.NumStations() {
		t.Errorf("inst delay rows = %d, want %d", len(w.InstDelayMS), net.NumStations())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	net := testNet(t)
	a, err := Generate(net, DefaultConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(net, DefaultConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	for l := range a.Requests {
		if a.Requests[l] != b.Requests[l] {
			t.Fatalf("request %d differs between same-seed runs", l)
		}
	}
	for tt := range a.Volumes {
		for l := range a.Volumes[tt] {
			if a.Volumes[tt][l] != b.Volumes[tt][l] {
				t.Fatalf("volume (%d,%d) differs", tt, l)
			}
		}
	}
}

func TestVolumesRespectBasicDemand(t *testing.T) {
	net := testNet(t)
	cfg := DefaultConfig()
	w, err := Generate(net, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for tt := range w.Volumes {
		for l, v := range w.Volumes[tt] {
			if v < w.Requests[l].BasicDemand-1e-12 {
				t.Fatalf("volume (%d,%d) = %v below basic demand %v", tt, l, v, w.Requests[l].BasicDemand)
			}
		}
	}
}

func TestBurstsAreClusterCorrelated(t *testing.T) {
	net := testNet(t)
	cfg := DefaultConfig()
	cfg.NumRequests = 40
	cfg.Horizon = 200
	w, err := Generate(net, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	// During cluster bursts, mean excess volume across the cluster's
	// requests must be clearly positive; in calm slots it must be ~zero.
	var burstExcess, calmExcess, nBurst, nCalm float64
	for tt := range w.Volumes {
		for l, v := range w.Volumes[tt] {
			excess := v - w.Requests[l].BasicDemand
			if w.ClusterBurst[tt][w.Requests[l].Cluster] == 1 {
				burstExcess += excess
				nBurst++
			} else {
				calmExcess += excess
				nCalm++
			}
		}
	}
	if nBurst == 0 {
		t.Fatal("no burst slots generated over 200 slots")
	}
	if calmExcess/nCalm > 1e-9 {
		t.Errorf("calm slots have excess demand %v, want 0", calmExcess/nCalm)
	}
	if burstExcess/nBurst < cfg.BurstScale/2 {
		t.Errorf("burst excess mean %v too small vs scale %v", burstExcess/nBurst, cfg.BurstScale)
	}
}

func TestBurstsAreSticky(t *testing.T) {
	net := testNet(t)
	cfg := DefaultConfig()
	cfg.Horizon = 400
	w, err := Generate(net, cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	// P(burst at t+1 | burst at t) should be near BurstStayProb and much
	// larger than P(burst at t+1 | calm at t).
	var stay, onset, nB, nC float64
	for tt := 0; tt+1 < cfg.Horizon; tt++ {
		for c := 0; c < cfg.NumClusters; c++ {
			if w.ClusterBurst[tt][c] == 1 {
				nB++
				stay += float64(w.ClusterBurst[tt+1][c])
			} else {
				nC++
				onset += float64(w.ClusterBurst[tt+1][c])
			}
		}
	}
	if nB == 0 || nC == 0 {
		t.Fatal("degenerate burst trace")
	}
	pStay, pOnset := stay/nB, onset/nC
	if pStay < pOnset+0.2 {
		t.Errorf("stay prob %v not clearly above onset prob %v", pStay, pOnset)
	}
}

func TestRegisteredStationsValid(t *testing.T) {
	net := testNet(t)
	w, err := Generate(net, DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range w.Requests {
		if r.RegisteredBS < 0 || r.RegisteredBS >= net.NumStations() {
			t.Fatalf("request %d registered to invalid station %d", r.ID, r.RegisteredBS)
		}
		if r.ServiceID < 0 || r.ServiceID >= len(w.Services) {
			t.Fatalf("request %d has invalid service %d", r.ID, r.ServiceID)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	net := testNet(t)
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero requests", func(c *Config) { c.NumRequests = 0 }},
		{"zero services", func(c *Config) { c.NumServices = 0 }},
		{"zero horizon", func(c *Config) { c.Horizon = 0 }},
		{"zero clusters", func(c *Config) { c.NumClusters = 0 }},
		{"bad demand range", func(c *Config) { c.BasicDemandMax = c.BasicDemandMin - 1 }},
		{"negative demand", func(c *Config) { c.BasicDemandMin = -1 }},
		{"negative burst", func(c *Config) { c.BurstScale = -1 }},
		{"bad prob", func(c *Config) { c.BurstOnProb = 2 }},
		{"zero cunit", func(c *Config) { c.CUnit = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if _, err := Generate(net, cfg, 1); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	if _, err := Generate(mec.NewNetwork("empty"), DefaultConfig(), 1); err == nil {
		t.Error("empty network accepted")
	}
}

func TestHotspotsClusteredByBorough(t *testing.T) {
	hs := Hotspots(10, 1)
	if len(hs) != 10 {
		t.Fatalf("got %d hotspots, want 10", len(hs))
	}
	for i, h := range hs {
		if h.Cluster != i {
			t.Errorf("hotspot %d cluster = %d", i, h.Cluster)
		}
		if h.Borough != i%5 {
			t.Errorf("hotspot %d borough = %d, want %d", i, h.Borough, i%5)
		}
		if h.X < 0 || h.X > 1 || h.Y < 0 || h.Y > 1 {
			t.Errorf("hotspot %d outside unit square: (%v,%v)", i, h.X, h.Y)
		}
		// Sites stay near their borough center.
		bc := _boroughCenters[h.Borough]
		if math.Abs(h.X-bc[0]) > 0.25 || math.Abs(h.Y-bc[1]) > 0.25 {
			t.Errorf("hotspot %d strays from borough center", i)
		}
	}
	if Hotspots(0, 1) != nil {
		t.Error("Hotspots(0) should be nil")
	}
}

func TestHotspotsDeterministic(t *testing.T) {
	a, b := Hotspots(7, 42), Hotspots(7, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hotspot %d differs between same-seed calls", i)
		}
	}
}

func TestPeakComputeDemandBelowNetworkCapacity(t *testing.T) {
	// Paper assumption: accumulative station resources exceed total demand.
	net := testNet(t)
	w, err := Generate(net, DefaultConfig(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if peak := w.PeakComputeDemand(); peak >= net.TotalCapacity() {
		t.Errorf("peak demand %v exceeds capacity %v; default config violates the paper's assumption", peak, net.TotalCapacity())
	}
}

func TestPropertyGenerateValid(t *testing.T) {
	net := testNet(t)
	f := func(seed int64, nReq, nSvc uint8) bool {
		cfg := DefaultConfig()
		cfg.NumRequests = 1 + int(nReq)%50
		cfg.NumServices = 1 + int(nSvc)%10
		cfg.Horizon = 30
		w, err := Generate(net, cfg, seed)
		if err != nil {
			return false
		}
		for tt := range w.Volumes {
			for l, v := range w.Volumes[tt] {
				if v <= 0 || math.IsNaN(v) {
					return false
				}
				if l >= cfg.NumRequests {
					return false
				}
			}
		}
		return w.TotalDemand(0) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestOccupancyCorrelatesWithBursts(t *testing.T) {
	net := testNet(t)
	cfg := DefaultConfig()
	cfg.Horizon = 300
	w, err := Generate(net, cfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	var burstOcc, calmOcc, nB, nC float64
	for tt := range w.Occupancy {
		for c, occ := range w.Occupancy[tt] {
			if w.ClusterBurst[tt][c] == 1 {
				burstOcc += occ
				nB++
			} else {
				calmOcc += occ
				nC++
			}
		}
	}
	if nB == 0 || nC == 0 {
		t.Fatal("degenerate trace")
	}
	if burstOcc/nB < calmOcc/nC+1 {
		t.Errorf("burst occupancy %v not clearly above calm %v", burstOcc/nB, calmOcc/nC)
	}
}
