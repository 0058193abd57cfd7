package algorithms

import (
	"testing"

	"github.com/mecsim/l4e/internal/caching"
)

func TestNewOLRegValidation(t *testing.T) {
	cfg := DefaultOLGDConfig(4)
	if _, err := NewOLReg(cfg, 0, []float64{1}); err == nil {
		t.Error("ARMA order 0 accepted")
	}
	badCfg := cfg
	badCfg.NumStations = 0
	if _, err := NewOLReg(badCfg, 4, []float64{1}); err == nil {
		t.Error("bad inner config accepted")
	}
	r, err := NewOLReg(cfg, 4, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "OL_Reg" {
		t.Errorf("name = %q", r.Name())
	}
}

func TestOLRegPredictionsClampedAtBasic(t *testing.T) {
	cfg := DefaultOLGDConfig(4)
	basics := []float64{3, 3, 3, 3, 3, 3}
	r, err := NewOLReg(cfg, 3, basics)
	if err != nil {
		t.Fatal(err)
	}
	// Feed tiny observed volumes; predictions would fall below basic.
	r.Observe(&Observation{TrueVolumes: []float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.1}})
	p := testProblem()
	view := &SlotView{T: 1, Problem: p}
	if _, err := r.Decide(view); err != nil {
		t.Fatal(err)
	}
	for l, req := range p.Requests {
		if req.Volume < basics[l] {
			t.Errorf("request %d volume %v below basic %v", l, req.Volume, basics[l])
		}
	}
}

func TestOLRegRequestCountMismatch(t *testing.T) {
	cfg := DefaultOLGDConfig(4)
	r, err := NewOLReg(cfg, 3, []float64{1, 2}) // 2 predictors, 6 requests
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Decide(&SlotView{T: 0, Problem: testProblem()}); err == nil {
		t.Error("request-count mismatch accepted")
	}
}

func TestOLRegTracksObservedVolumes(t *testing.T) {
	cfg := DefaultOLGDConfig(4)
	basics := []float64{1, 1, 1, 1, 1, 1}
	r, err := NewOLReg(cfg, 2, basics)
	if err != nil {
		t.Fatal(err)
	}
	// After observing steady volume 5, predictions should be 5.
	for i := 0; i < 4; i++ {
		r.Observe(&Observation{TrueVolumes: []float64{5, 5, 5, 5, 5, 5}})
	}
	p := testProblem()
	if _, err := r.Decide(&SlotView{T: 4, Problem: p}); err != nil {
		t.Fatal(err)
	}
	for l, req := range p.Requests {
		if req.Volume != 5 {
			t.Errorf("request %d predicted volume %v, want 5", l, req.Volume)
		}
	}
}

func fastOLGANConfig(n, clusters int) OLGANConfig {
	cfg := DefaultOLGANConfig(n, clusters)
	cfg.GAN.PretrainEpochs = 10
	cfg.GAN.AdvEpochs = 2
	cfg.GAN.Hidden = 6
	cfg.WarmupSlots = 12
	cfg.RetrainEvery = 0
	return cfg
}

func TestNewOLGANValidation(t *testing.T) {
	cfg := fastOLGANConfig(4, 2)
	cfg.WarmupSlots = 3 // below GAN window
	if _, err := NewOLGAN(cfg, []float64{1}, []int{0}); err == nil {
		t.Error("warmup below window accepted")
	}
	cfg = fastOLGANConfig(4, 2)
	if _, err := NewOLGAN(cfg, []float64{1, 2}, []int{0}); err == nil {
		t.Error("basics/clusters length mismatch accepted")
	}
	g, err := NewOLGAN(cfg, []float64{1, 1}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "OL_GAN" {
		t.Errorf("name = %q", g.Name())
	}
	if g.trained {
		t.Error("fresh policy claims trained")
	}
	if g.model == nil {
		t.Error("model accessor returned nil")
	}
}

func TestOLGANWarmupFallbackThenTrains(t *testing.T) {
	basics := make([]float64, 6)
	clusters := make([]int, 6)
	for l := range basics {
		basics[l] = 2
		clusters[l] = l % 2
	}
	cfg := fastOLGANConfig(4, 2)
	g, err := NewOLGAN(cfg, basics, clusters)
	if err != nil {
		t.Fatal(err)
	}
	feats := make([][]float64, 6)
	for l := range feats {
		feats[l] = []float64{1}
	}
	for slot := 0; slot < cfg.WarmupSlots+2; slot++ {
		p := testProblem()
		view := &SlotView{T: slot, Problem: p, Features: feats, Clusters: clusters}
		if _, err := g.Decide(view); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		if slot < cfg.WarmupSlots && g.trained {
			t.Fatalf("trained during warmup at slot %d", slot)
		}
		g.Observe(&Observation{T: slot, TrueVolumes: []float64{2, 3, 2, 3, 2, 3}})
	}
	if !g.trained {
		t.Error("never trained after warmup")
	}
	// Post-training volumes must still be clamped at basic demand.
	p := testProblem()
	view := &SlotView{T: cfg.WarmupSlots + 3, Problem: p, Features: feats, Clusters: clusters}
	if _, err := g.Decide(view); err != nil {
		t.Fatal(err)
	}
	for l, req := range p.Requests {
		if req.Volume < basics[l]-1e-9 {
			t.Errorf("request %d volume %v below basic", l, req.Volume)
		}
	}
}

func TestOLGANTrainSamplesRoundRobin(t *testing.T) {
	basics := make([]float64, 9)
	clusters := []int{0, 0, 0, 1, 1, 1, 2, 2, 2}
	for l := range basics {
		basics[l] = 1
	}
	cfg := fastOLGANConfig(4, 3)
	cfg.MaxTrainSeries = 3
	g, err := NewOLGAN(cfg, basics, clusters)
	if err != nil {
		t.Fatal(err)
	}
	// Feed some history.
	for slot := 0; slot < 15; slot++ {
		for l := range g.histVol {
			g.histVol[l] = append(g.histVol[l], 1)
			g.histFeat[l] = append(g.histFeat[l], []float64{1})
		}
	}
	samples := g.trainSamples()
	if len(samples) != 3 {
		t.Fatalf("got %d samples, want 3", len(samples))
	}
	// Round-robin across clusters: one per cluster.
	seen := map[int]bool{}
	for _, s := range samples {
		seen[s.Code] = true
	}
	if len(seen) != 3 {
		t.Errorf("samples cover %d clusters, want 3", len(seen))
	}
}

func TestOLGANRequestCountMismatch(t *testing.T) {
	cfg := fastOLGANConfig(4, 2)
	g, err := NewOLGAN(cfg, []float64{1, 1}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Decide(&SlotView{T: 0, Problem: testProblem()}); err == nil {
		t.Error("request-count mismatch accepted")
	}
}

func TestOLGANFeatureDimZeroWorks(t *testing.T) {
	// With FeatureDim=0 the policy must run without feature plumbing.
	basics := []float64{2, 2, 2, 2, 2, 2}
	clusters := []int{0, 1, 0, 1, 0, 1}
	cfg := fastOLGANConfig(4, 2)
	cfg.GAN.FeatureDim = 0
	g, err := NewOLGAN(cfg, basics, clusters)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < cfg.WarmupSlots+2; slot++ {
		p := testProblem()
		if _, err := g.Decide(&SlotView{T: slot, Problem: p, Clusters: clusters}); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		g.Observe(&Observation{T: slot, TrueVolumes: []float64{2, 2.5, 2, 2.5, 2, 2.5}})
	}
	if !g.trained {
		t.Error("never trained")
	}
}

func TestOracleInstancesShared(t *testing.T) {
	// Sanity: an Assignment's instance set treats same (service, station)
	// pairs as one cached instance.
	p := testProblem()
	a := &caching.Assignment{BS: []int{0, 0, 0, 0, 0, 0}}
	inst := a.Instances(p)
	if len(inst) != 2 { // services 0 and 1 both at station 0
		t.Errorf("instances = %d, want 2", len(inst))
	}
}
