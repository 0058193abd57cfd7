package algorithms

import (
	"fmt"
	"math/rand"

	"github.com/mecsim/l4e/internal/bandit"
	"github.com/mecsim/l4e/internal/caching"
	"github.com/mecsim/l4e/internal/obs"
	"github.com/mecsim/l4e/internal/persist"
)

// IndexKind selects the arm index used by IndexOLGD.
type IndexKind int

// Index policies for the ablation of Algorithm 1's epsilon_t-greedy
// exploration.
const (
	// IndexUCB uses the optimistic lower-confidence index (delay
	// minimisation), folding exploration into the LP costs.
	IndexUCB IndexKind = iota + 1
	// IndexThompson samples each arm's delay from its Gaussian posterior.
	IndexThompson
)

// String implements fmt.Stringer.
func (k IndexKind) String() string {
	switch k {
	case IndexUCB:
		return "UCB"
	case IndexThompson:
		return "Thompson"
	default:
		return fmt.Sprintf("IndexKind(%d)", int(k))
	}
}

// IndexOLGD is an ablation of OL_GD that replaces the epsilon_t-greedy
// candidate mechanism with an index policy: the LP is solved with UCB or
// Thompson indices instead of plain means, and the fractional solution is
// rounded deterministically. Exploration happens implicitly because
// uncertain arms have optimistic indices.
type IndexOLGD struct {
	kind IndexKind
	arms *bandit.Arms
	// rng draws from src, a counting source, making the Thompson-sampling
	// cursor serializable (see SaveState/LoadState).
	rng      *rand.Rand
	src      *persist.CountingSource
	n        int
	observer *obs.Observer
	ws       *caching.Workspace
}

// SetObserver implements ObserverSetter.
func (x *IndexOLGD) SetObserver(o *obs.Observer) { x.observer = o }

// NewIndexOLGD builds the ablation policy.
func NewIndexOLGD(kind IndexKind, numStations int, optimisticPrior float64, seed int64) (*IndexOLGD, error) {
	if kind != IndexUCB && kind != IndexThompson {
		return nil, fmt.Errorf("algorithms: unknown index kind %d", int(kind))
	}
	if numStations <= 0 {
		return nil, fmt.Errorf("algorithms: IndexOLGD numStations = %d", numStations)
	}
	src := persist.NewCountingSource(seed)
	return &IndexOLGD{
		kind: kind,
		arms: bandit.NewArms(numStations, optimisticPrior),
		rng:  rand.New(src),
		src:  src,
		n:    numStations,
		ws:   caching.NewWorkspace(),
	}, nil
}

// Name implements Policy.
func (x *IndexOLGD) Name() string { return "OL_GD/" + x.kind.String() }

// Decide implements Policy.
func (x *IndexOLGD) Decide(view *SlotView) (*caching.Assignment, error) {
	p := view.Problem
	if p.NumStations != x.n {
		return nil, fmt.Errorf("algorithms: IndexOLGD built for %d stations, slot has %d", x.n, p.NumStations)
	}
	theta := make([]float64, x.n)
	for i := 0; i < x.n; i++ {
		switch x.kind {
		case IndexUCB:
			v := x.arms.UCB(i, view.T+1)
			if v < 0 { // unplayed arms: maximally attractive
				v = 0
			}
			theta[i] = v
		case IndexThompson:
			v := x.arms.Thompson(i, x.rng)
			if v < 0 {
				v = 0
			}
			theta[i] = v
		}
	}
	p.UnitDelayMS = theta
	frac, a, err := solveRoundRepair(view, x.ws, x.observer, x.Name())
	if err != nil {
		return nil, err
	}
	if ob := x.observer; ob.TraceEnabled() {
		ob.Emit(obs.Event{Slot: view.T, Name: "indexolgd.decide", Policy: x.Name(), Fields: obs.Fields{
			"index":             x.kind.String(),
			"solver":            string(frac.Stats.Solver),
			"solver_iterations": frac.Stats.Iterations,
			"arms":              distinctStations(a),
			"arms_played_total": x.arms.PlayedArms(),
		}})
	}
	return a, nil
}

// Observe implements Policy.
func (x *IndexOLGD) Observe(ob *Observation) { observeArms(x.arms, x.observer, ob) }

// BanditState implements BanditReporter. Index policies have no explicit
// epsilon (exploration is implicit in the optimistic indices), so HasEpsilon
// is false and Explored never fires.
func (x *IndexOLGD) BanditState() *BanditState {
	return &BanditState{
		Pulls: x.arms.Counts(),
		Means: x.arms.Means(),
	}
}

var (
	_ Policy         = (*IndexOLGD)(nil)
	_ BanditReporter = (*IndexOLGD)(nil)
)
