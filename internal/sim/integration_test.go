package sim

import (
	"testing"

	"github.com/mecsim/l4e/internal/algorithms"
	"github.com/mecsim/l4e/internal/obs"
	"github.com/mecsim/l4e/internal/topology"
	"github.com/mecsim/l4e/internal/workload"
)

// basicsAndClusters extracts per-request basic demands and cluster codes.
func basicsAndClusters(w *workload.Workload) ([]float64, []int) {
	basics := make([]float64, len(w.Requests))
	clusters := make([]int, len(w.Requests))
	for l, r := range w.Requests {
		basics[l] = r.BasicDemand
		clusters[l] = r.Cluster
	}
	return basics, clusters
}

func TestOLGANBeatsOLRegEndToEnd(t *testing.T) {
	// Fig. 6 shape at reduced scale: demands hidden, OL_GAN's
	// feature-conditioned predictions yield lower average delay than
	// OL_Reg's ARMA, and OL_GAN costs clearly more running time.
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	net, w := testEnv(t, 25, 16, 80)
	basics, clusters := basicsAndClusters(w)

	mkRunner := func() *Runner {
		r, err := NewRunner(net, w, Config{Seed: 13, DemandsGiven: false})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	regCfg := algorithms.DefaultOLGDConfig(net.NumStations())
	regCfg.Seed = 13
	reg, err := algorithms.NewOLReg(regCfg, 4, basics)
	if err != nil {
		t.Fatal(err)
	}

	ganCfg := algorithms.DefaultOLGANConfig(net.NumStations(), w.Config.NumClusters)
	ganCfg.OLGD.Seed = 13
	ganCfg.GAN.PretrainEpochs = 40
	ganCfg.GAN.AdvEpochs = 10
	ganCfg.GAN.Hidden = 8
	ganCfg.RetrainEvery = 0 // keep the test fast
	ganPolicy, err := algorithms.NewOLGAN(ganCfg, basics, clusters)
	if err != nil {
		t.Fatal(err)
	}

	regRes, err := mkRunner().Run(reg)
	if err != nil {
		t.Fatal(err)
	}
	ob := obs.New(obs.Options{})
	ganRunner, err := NewRunner(net, w, Config{Seed: 13, DemandsGiven: false, Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	ganRes, err := ganRunner.Run(ganPolicy)
	if err != nil {
		t.Fatal(err)
	}
	if ob.Snapshot().Counters["olgan.initial_trainings"] != 1 {
		t.Fatal("OL_GAN never trained its model")
	}

	// Compare only post-warmup slots (both policies act identically-ish
	// during warmup, and the paper's comparison is about the prediction
	// phase).
	warm := ganCfg.WarmupSlots
	avgAfter := func(res *Result) float64 {
		total := 0.0
		for _, d := range res.PerSlotDelayMS[warm:] {
			total += d
		}
		return total / float64(len(res.PerSlotDelayMS)-warm)
	}
	regDelay, ganDelay := avgAfter(regRes), avgAfter(ganRes)
	t.Logf("post-warmup avg delay: OL_GAN %.2f ms vs OL_Reg %.2f ms", ganDelay, regDelay)
	if ganDelay >= regDelay {
		t.Errorf("OL_GAN (%v ms) did not beat OL_Reg (%v ms)", ganDelay, regDelay)
	}

	// Fig. 6b shape: OL_GAN's total runtime is a multiple of OL_Reg's.
	t.Logf("runtime: OL_GAN %.1f ms vs OL_Reg %.1f ms", ganRes.TotalRuntimeMS, regRes.TotalRuntimeMS)
	if ganRes.TotalRuntimeMS < 2*regRes.TotalRuntimeMS {
		t.Errorf("OL_GAN runtime %v not clearly above OL_Reg %v", ganRes.TotalRuntimeMS, regRes.TotalRuntimeMS)
	}
}

func TestOLRegRunsEndToEnd(t *testing.T) {
	net, w := testEnv(t, 20, 10, 30)
	basics, _ := basicsAndClusters(w)
	cfg := algorithms.DefaultOLGDConfig(net.NumStations())
	reg, err := algorithms.NewOLReg(cfg, 4, basics)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(net, w, Config{Seed: 1, DemandsGiven: false})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(reg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "OL_Reg" {
		t.Errorf("name = %q", res.Policy)
	}
	if len(res.PerSlotDelayMS) != 30 {
		t.Errorf("slots = %d", len(res.PerSlotDelayMS))
	}
}

func TestPriGDEndToEnd(t *testing.T) {
	net, w := testEnv(t, 20, 10, 20)
	xy := make([][2]float64, len(w.Requests))
	for l, r := range w.Requests {
		xy[l] = [2]float64{r.X, r.Y}
	}
	pri, err := algorithms.NewPriGD(net, xy, histFor(net), false)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(net, w, Config{Seed: 2, DemandsGiven: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(pri)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgDelayMS <= 0 {
		t.Errorf("avg delay = %v", res.AvgDelayMS)
	}
}

func TestRequestChurnEndToEnd(t *testing.T) {
	// With session churn, the per-slot problem covers only R(t); all
	// policies must handle the varying request set keyed by stable IDs.
	net, err := topology.GTITM(20, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig()
	cfg.NumRequests = 12
	cfg.Horizon = 50
	cfg.SessionOffProb = 0.1
	cfg.SessionOnProb = 0.3
	w, err := workload.Generate(net, cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: churn actually happened.
	activeCount := func(tt int) int {
		n := 0
		for _, a := range w.Active[tt] {
			if a {
				n++
			}
		}
		return n
	}
	varies := false
	for tt := 1; tt < cfg.Horizon; tt++ {
		if activeCount(tt) != activeCount(0) {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("no churn generated")
	}

	basics, clusters := basicsAndClusters(w)
	xy := make([][2]float64, len(w.Requests))
	for l, r := range w.Requests {
		xy[l] = [2]float64{r.X, r.Y}
	}
	olgd, err := algorithms.NewOLGD(algorithms.DefaultOLGDConfig(net.NumStations()))
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := algorithms.NewGreedyGD(histFor(net), false)
	if err != nil {
		t.Fatal(err)
	}
	pri, err := algorithms.NewPriGD(net, xy, histFor(net), false)
	if err != nil {
		t.Fatal(err)
	}
	regCfg := algorithms.DefaultOLGDConfig(net.NumStations())
	reg, err := algorithms.NewOLReg(regCfg, 3, basics)
	if err != nil {
		t.Fatal(err)
	}
	ganCfg := algorithms.DefaultOLGANConfig(net.NumStations(), cfg.NumClusters)
	ganCfg.GAN.PretrainEpochs = 8
	ganCfg.GAN.AdvEpochs = 2
	ganCfg.GAN.Hidden = 6
	ganCfg.WarmupSlots = 15
	ganCfg.RetrainEvery = 0
	ganPol, err := algorithms.NewOLGAN(ganCfg, basics, clusters)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		policy algorithms.Policy
		hidden bool
	}{
		{olgd, false}, {greedy, false}, {pri, false}, {reg, true}, {ganPol, true},
	} {
		r, err := NewRunner(net, w, Config{Seed: 9, DemandsGiven: !tc.hidden})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(tc.policy)
		if err != nil {
			t.Fatalf("%s under churn: %v", tc.policy.Name(), err)
		}
		if len(res.PerSlotDelayMS) != cfg.Horizon {
			t.Errorf("%s: truncated run", tc.policy.Name())
		}
	}
}
