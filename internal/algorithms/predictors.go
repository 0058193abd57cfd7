package algorithms

import (
	"fmt"

	"github.com/mecsim/l4e/internal/caching"
	"github.com/mecsim/l4e/internal/forecast"
	"github.com/mecsim/l4e/internal/gan"
	"github.com/mecsim/l4e/internal/obs"
)

// OLReg is the OL_Reg baseline: Algorithm 1 driven by per-request ARMA
// demand predictions (Eq. 27). Only the volume history is used — no hidden
// user features — which is what makes it lag behind bursty regime switches.
type OLReg struct {
	inner      *OLGD
	predictors []*forecast.ARMA
	basics     []float64
}

// NewOLReg builds the baseline. basics supplies each request's known basic
// demand rho_l^bsc, used both to seed the predictors and as a lower clamp
// (total volume can never fall below the basic demand).
func NewOLReg(cfg OLGDConfig, order int, basics []float64) (*OLReg, error) {
	inner, err := NewOLGD(cfg)
	if err != nil {
		return nil, err
	}
	inner.name = "OL_Reg"
	preds := make([]*forecast.ARMA, len(basics))
	for l, b := range basics {
		p, err := forecast.NewARMA(order, b)
		if err != nil {
			return nil, err
		}
		preds[l] = p
	}
	return &OLReg{
		inner:      inner,
		predictors: preds,
		basics:     append([]float64(nil), basics...),
	}, nil
}

// Name implements Policy.
func (o *OLReg) Name() string { return o.inner.Name() }

// SetObserver implements ObserverSetter (forwards to the inner OL_GD; the
// predictor contributes its own counter).
func (o *OLReg) SetObserver(ob *obs.Observer) { o.inner.SetObserver(ob) }

// Decide implements Policy: predict each active request's volume (looked up
// by stable request ID, so R(t) churn is handled), then run OL_GD.
func (o *OLReg) Decide(view *SlotView) (*caching.Assignment, error) {
	for l := range view.Problem.Requests {
		id := view.Problem.Requests[l].ID
		if id < 0 || id >= len(o.predictors) {
			return nil, fmt.Errorf("algorithms: OLReg has no predictor for request id %d", id)
		}
		v := o.predictors[id].Predict()
		if v < o.basics[id] {
			v = o.basics[id]
		}
		view.Problem.Requests[l].Volume = v
	}
	o.inner.observer.Add("predictor.arma_predictions", int64(len(view.Problem.Requests)))
	return o.inner.Decide(view)
}

// Observe implements Policy: update delay arms and feed realised volumes of
// ACTIVE requests to the predictors (inactive volumes were unobservable).
func (o *OLReg) Observe(obs *Observation) {
	o.inner.Observe(obs)
	for id, v := range obs.TrueVolumes {
		if id < len(o.predictors) && obs.activeAt(id) {
			o.predictors[id].Observe(v)
		}
	}
}

// BanditState implements BanditReporter (forwarded to the inner OL_GD).
func (o *OLReg) BanditState() *BanditState { return o.inner.BanditState() }

// OLGANConfig parameterises Algorithm 2 (OL_GAN).
type OLGANConfig struct {
	// OLGD configures the inner online-learning policy.
	OLGD OLGDConfig
	// GAN configures the Info-RNN-GAN predictor.
	GAN gan.Config
	// WarmupSlots is how many slots of history are collected before the
	// first GAN training (the "small sample" of the paper). Before that,
	// an order-3 ARMA stands in.
	WarmupSlots int
	// RetrainEvery re-trains the GAN on the full accumulated history every
	// this many slots after warmup (0 disables; Algorithm 2's discriminator
	// keeps observing real volumes and feeding the loss back).
	RetrainEvery int
	// RetrainEpochs bounds the supervised epochs of each re-train.
	RetrainEpochs int
	// MaxTrainSeries caps how many request series feed each training round
	// (subsampled round-robin across clusters to bound training cost).
	MaxTrainSeries int
}

// DefaultOLGANConfig mirrors the experiment settings.
func DefaultOLGANConfig(numStations, numClusters int) OLGANConfig {
	return OLGANConfig{
		OLGD:           DefaultOLGDConfig(numStations),
		GAN:            gan.DefaultConfig(numClusters),
		WarmupSlots:    30,
		RetrainEvery:   25,
		RetrainEpochs:  15,
		MaxTrainSeries: 12,
	}
}

// OLGAN is Algorithm 2 (OL_GAN): the GAN-guided heuristic for the problem
// with both demand and processing-delay uncertainty.
type OLGAN struct {
	cfg    OLGANConfig
	inner  *OLGD
	model  *gan.InfoRNNGAN
	warm   []*forecast.ARMA // warmup stand-in predictors
	basics []float64
	// Per-request realised volume histories (one row per ACTIVE slot).
	histVol [][]float64
	// Per-request feature histories aligned with histVol (the feature of
	// each active slot, appended at Observe).
	histFeat [][][]float64
	// pendingFeat holds the CURRENT slot's feature row per request,
	// recorded at Decide (features are observable at slot start; volumes
	// only afterwards).
	pendingFeat [][]float64
	clusters    []int
	trained     bool
	observer    *obs.Observer
}

// NewOLGAN builds Algorithm 2. basics supplies known basic demands;
// clusters supplies each request's latent cluster code.
func NewOLGAN(cfg OLGANConfig, basics []float64, clusters []int) (*OLGAN, error) {
	if cfg.WarmupSlots < cfg.GAN.Window+1 {
		return nil, fmt.Errorf("algorithms: OLGAN warmup %d must exceed GAN window %d", cfg.WarmupSlots, cfg.GAN.Window)
	}
	if len(basics) != len(clusters) {
		return nil, fmt.Errorf("algorithms: OLGAN got %d basics and %d clusters", len(basics), len(clusters))
	}
	inner, err := NewOLGD(cfg.OLGD)
	if err != nil {
		return nil, err
	}
	inner.name = "OL_GAN"
	model, err := gan.New(cfg.GAN)
	if err != nil {
		return nil, err
	}
	warm := make([]*forecast.ARMA, len(basics))
	for l, b := range basics {
		p, err := forecast.NewARMA(3, b)
		if err != nil {
			return nil, err
		}
		warm[l] = p
	}
	return &OLGAN{
		cfg:         cfg,
		inner:       inner,
		model:       model,
		warm:        warm,
		basics:      append([]float64(nil), basics...),
		histVol:     make([][]float64, len(basics)),
		histFeat:    make([][][]float64, len(basics)),
		pendingFeat: make([][]float64, len(basics)),
		clusters:    append([]int(nil), clusters...),
	}, nil
}

// Name implements Policy.
func (o *OLGAN) Name() string { return o.inner.Name() }

// SetObserver implements ObserverSetter: the inner OL_GD reports bandit and
// solver series, the GAN reports per-epoch losses, and OLGAN itself counts
// (re)training rounds and which predictor served each slot.
func (o *OLGAN) SetObserver(ob *obs.Observer) {
	o.observer = ob
	o.inner.SetObserver(ob)
	o.model.SetObserver(ob)
}

// Decide implements Policy (Algorithm 2, lines 2-11). Per-request state is
// indexed by stable request ID so per-slot churn (R(t) subsets) is handled.
func (o *OLGAN) Decide(view *SlotView) (*caching.Assignment, error) {
	for l := range view.Problem.Requests {
		if id := view.Problem.Requests[l].ID; id < 0 || id >= len(o.basics) {
			return nil, fmt.Errorf("algorithms: OLGAN has no state for request id %d", id)
		}
	}
	// Record current-slot observable features (known at slot start) for the
	// FULL request set: hotspot occupancy is visible whether or not the
	// request is active this slot.
	for id := range o.basics {
		var f []float64
		if view.Features != nil && id < len(view.Features) {
			f = view.Features[id]
		}
		o.pendingFeat[id] = f
	}

	// (Re)train on schedule. With request churn some series may still be
	// shorter than the GAN window at warmup; training is postponed until at
	// least one series is long enough.
	if !o.trained && view.T >= o.cfg.WarmupSlots {
		if len(o.trainSamples()) > 0 {
			if err := o.train(); err != nil {
				return nil, err
			}
			o.trained = true
			o.observer.Inc("olgan.initial_trainings")
			if o.observer.TraceEnabled() {
				o.observer.Emit(obs.Event{Slot: view.T, Name: "olgan.train", Policy: o.Name(), Fields: obs.Fields{
					"kind": "initial", "series": len(o.trainSamples()),
				}})
			}
		}
	} else if o.trained && o.cfg.RetrainEvery > 0 && (view.T-o.cfg.WarmupSlots)%o.cfg.RetrainEvery == 0 && view.T > o.cfg.WarmupSlots {
		if err := o.retrain(); err != nil {
			return nil, err
		}
		o.observer.Inc("olgan.retrains")
		if o.observer.TraceEnabled() {
			o.observer.Emit(obs.Event{Slot: view.T, Name: "olgan.train", Policy: o.Name(), Fields: obs.Fields{
				"kind": "retrain", "series": len(o.trainSamples()),
			}})
		}
	}

	// Predict each active request's volume for this slot.
	ganPreds, warmPreds := 0, 0
	for l := range view.Problem.Requests {
		id := view.Problem.Requests[l].ID
		var v float64
		if o.trained && len(o.histVol[id]) > 0 {
			var feats [][]float64
			if o.cfg.GAN.FeatureDim > 0 {
				// histFeat is aligned with histVol (active slots only);
				// Predict needs those rows plus the current slot's.
				feats = append(append([][]float64(nil), o.histFeat[id]...), o.pendingFeat[id])
			}
			pred, err := o.model.Predict(o.histVol[id], feats, o.clusters[id])
			if err != nil {
				return nil, fmt.Errorf("algorithms: OLGAN predict request %d: %w", id, err)
			}
			v = pred
			ganPreds++
		} else {
			v = o.warm[id].Predict()
			warmPreds++
		}
		if v < o.basics[id] {
			v = o.basics[id]
		}
		view.Problem.Requests[l].Volume = v
	}
	o.observer.Add("predictor.gan_predictions", int64(ganPreds))
	o.observer.Add("predictor.warm_arma_predictions", int64(warmPreds))
	return o.inner.Decide(view)
}

// Observe implements Policy (Algorithm 2, lines 12-15). Only active
// requests' volumes were observable; their feature rows (recorded at
// Decide) are committed alongside so the two histories stay aligned.
func (o *OLGAN) Observe(obs *Observation) {
	o.inner.Observe(obs)
	for id, v := range obs.TrueVolumes {
		if id < len(o.histVol) && obs.activeAt(id) {
			o.histVol[id] = append(o.histVol[id], v)
			o.histFeat[id] = append(o.histFeat[id], o.pendingFeat[id])
			o.warm[id].Observe(v)
		}
	}
}

// trainSamples subsamples request series round-robin across clusters.
func (o *OLGAN) trainSamples() []gan.Sample {
	limit := o.cfg.MaxTrainSeries
	if limit <= 0 || limit > len(o.histVol) {
		limit = len(o.histVol)
	}
	// Round-robin over clusters for coverage.
	byCluster := make(map[int][]int)
	for l, c := range o.clusters {
		byCluster[c] = append(byCluster[c], l)
	}
	var chosen []int
	for round := 0; len(chosen) < limit; round++ {
		added := false
		for c := 0; c < o.cfg.GAN.CodeDim && len(chosen) < limit; c++ {
			if ls := byCluster[c]; round < len(ls) {
				chosen = append(chosen, ls[round])
				added = true
			}
		}
		if !added {
			break
		}
	}
	samples := make([]gan.Sample, 0, len(chosen))
	for _, l := range chosen {
		if len(o.histVol[l]) < o.cfg.GAN.Window {
			continue // churned request with too little observed history
		}
		s := gan.Sample{
			Volumes: append([]float64(nil), o.histVol[l]...),
			Code:    o.clusters[l],
		}
		if o.cfg.GAN.FeatureDim > 0 {
			s.Features = o.histFeat[l] // aligned with Volumes by construction
		}
		samples = append(samples, s)
	}
	return samples
}

func (o *OLGAN) train() error {
	return o.model.Train(o.trainSamples())
}

func (o *OLGAN) retrain() error {
	// Fine-tune with a bounded number of supervised epochs on the grown
	// history (fresh adversarial epochs are capped too).
	cfg := o.cfg.GAN
	epochs := o.cfg.RetrainEpochs
	if epochs <= 0 {
		epochs = 10
	}
	cfg.PretrainEpochs = epochs
	cfg.AdvEpochs = epochs / 3
	model, err := gan.New(cfg)
	if err != nil {
		return err
	}
	model.SetObserver(o.observer)
	// Continue from current weights is not supported by gan.New; retraining
	// from scratch on MORE data is the small-sample-friendly choice and
	// keeps the predictor honest about what it has seen.
	if err := model.Train(o.trainSamples()); err != nil {
		return err
	}
	o.model = model
	return nil
}

// BanditState implements BanditReporter (forwarded to the inner OL_GD).
func (o *OLGAN) BanditState() *BanditState { return o.inner.BanditState() }

var (
	_ Policy         = (*OLReg)(nil)
	_ Policy         = (*OLGAN)(nil)
	_ BanditReporter = (*OLReg)(nil)
	_ BanditReporter = (*OLGAN)(nil)
)
