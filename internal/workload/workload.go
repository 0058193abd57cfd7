// Package workload models user requests with bursty data volumes
// (Section III-B): each request r_l has a basic demand rho_l^bsc known a
// priori and an uncertain bursty component rho_l^bst(t) driven by hidden
// user features. Bursts are location-correlated — users attached to the same
// hotspot cluster (e.g. a museum running a VR exhibit) burst together — which
// is exactly the structure the Info-RNN-GAN predictor learns from small
// samples, and which fixed-coefficient ARMA prediction misses.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/mecsim/l4e/internal/mec"
)

// Service is a cacheable network service (VR rendering, cloud gaming, IoT
// analytics, ...) originally hosted in the remote data center.
type Service struct {
	ID   int
	Name string
	// BaseInstMS is the base instantiation delay of spinning up a VM or
	// container for the service; the per-station delay d^ins_{i,k} scales it
	// by a station-class factor.
	BaseInstMS float64
}

// Request is one user request r_l = <rho_l(t), S_k>.
type Request struct {
	ID        int
	ServiceID int
	// X, Y is the user's position (meters), drawn from its hotspot.
	X, Y float64
	// Cluster is the hidden location/hotspot cluster index, one-hot encoded
	// as the latent code c^t fed to the GAN.
	Cluster int
	// GroupTag is an auxiliary hidden feature (user group).
	GroupTag int
	// RegisteredBS is the base station the user attaches to (nearest
	// covering station, or nearest station if uncovered).
	RegisteredBS int
	// BasicDemand is rho_l^bsc in data units.
	BasicDemand float64
}

// Config parameterises workload generation.
type Config struct {
	// NumRequests is |R|.
	NumRequests int
	// NumServices is |S|.
	NumServices int
	// Horizon is the number of time slots T.
	Horizon int
	// NumClusters is the number of demand hotspots.
	NumClusters int
	// BasicDemandMin/Max bound rho_l^bsc (data units).
	BasicDemandMin, BasicDemandMax float64
	// BurstScale is the mean bursty volume added while a cluster is in its
	// burst state (data units).
	BurstScale float64
	// BurstOnProb is the per-slot probability a calm cluster enters a burst.
	BurstOnProb float64
	// BurstStayProb is the per-slot probability a bursting cluster stays
	// bursting (bursts are sticky; this is what an RNN can learn).
	BurstStayProb float64
	// CUnit is the computing resource (MHz) needed per unit of data.
	CUnit float64
	// SessionOffProb is the per-slot probability an active request goes
	// inactive (its user leaves); SessionOnProb is the probability an
	// inactive request rejoins. Both zero (the default) keeps every request
	// active every slot — R(t) = R, the setting of the paper's experiments.
	SessionOffProb, SessionOnProb float64
}

// DefaultConfig returns a workload configuration sized like the paper's
// experiments (horizon 100 slots).
func DefaultConfig() Config {
	return Config{
		NumRequests:    60,
		NumServices:    8,
		Horizon:        100,
		NumClusters:    6,
		BasicDemandMin: 2,
		BasicDemandMax: 6,
		BurstScale:     8,
		BurstOnProb:    0.08,
		BurstStayProb:  0.75,
		CUnit:          40,
	}
}

// Workload is a fully generated request set plus its demand trace.
type Workload struct {
	Config   Config
	Services []Service
	Requests []Request
	// Volumes[t][l] is rho_l(t) = basic + bursty volume at slot t.
	Volumes [][]float64
	// ClusterBurst[t][c] is 1 when cluster c is bursting at slot t (the
	// hidden regime the GAN's latent code helps expose).
	ClusterBurst [][]int
	// Active[t][l] reports whether request l is present in R(t). With the
	// default session probabilities every request is always active.
	Active [][]bool
	// Occupancy[t][c] is the observable per-slot hotspot occupancy signal of
	// cluster c: user presence is visible to the operator at slot START
	// (users have attached to stations) while their data volumes are not.
	// It is a noisy correlate of the burst regime — the "coding of user
	// locations in time slot t" that the paper's latent code c^t carries.
	Occupancy [][]float64
	// InstDelayMS[i][k] is d^ins_{i,k}: instantiation delay of caching an
	// instance of service k at station i.
	InstDelayMS [][]float64
}

// Generate builds a deterministic workload over the given network.
func Generate(net *mec.Network, cfg Config, seed int64) (*Workload, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	if net.NumStations() == 0 {
		return nil, fmt.Errorf("workload: network has no stations")
	}
	rng := rand.New(rand.NewSource(seed))

	w := &Workload{Config: cfg}

	names := []string{"vr-museum", "cloud-gaming", "iot-analytics", "ar-nav",
		"video-transcode", "speech-inference", "face-auth", "map-tiles",
		"traffic-fusion", "health-monitor", "drone-control", "retail-vision"}
	w.Services = make([]Service, cfg.NumServices)
	for k := range w.Services {
		w.Services[k] = Service{
			ID:         k,
			Name:       names[k%len(names)],
			BaseInstMS: 5 + rng.Float64()*10,
		}
	}

	// Hotspot clusters from the synthetic NYC Wi-Fi dataset.
	hotspots := Hotspots(cfg.NumClusters, seed+1)

	w.Requests = make([]Request, cfg.NumRequests)
	for l := range w.Requests {
		h := hotspots[l%len(hotspots)]
		// Scale the hotspot's unit-square position into the network's extent.
		x, y := scaleToNetwork(net, h.X, h.Y, rng)
		req := Request{
			ID:          l,
			ServiceID:   rng.Intn(cfg.NumServices),
			X:           x,
			Y:           y,
			Cluster:     h.Cluster,
			GroupTag:    h.Borough,
			BasicDemand: cfg.BasicDemandMin + rng.Float64()*(cfg.BasicDemandMax-cfg.BasicDemandMin),
		}
		req.RegisteredBS = registerStation(net, x, y)
		w.Requests[l] = req
	}

	// Request session activity: a per-request on/off Markov chain defines
	// R(t). All requests start active.
	w.Active = make([][]bool, cfg.Horizon)
	sessions := make([]bool, cfg.NumRequests)
	for l := range sessions {
		sessions[l] = true
	}
	for t := 0; t < cfg.Horizon; t++ {
		w.Active[t] = make([]bool, cfg.NumRequests)
		for l := range sessions {
			if sessions[l] {
				if rng.Float64() < cfg.SessionOffProb {
					sessions[l] = false
				}
			} else if rng.Float64() < cfg.SessionOnProb {
				sessions[l] = true
			}
			w.Active[t][l] = sessions[l]
		}
	}

	// Markov-modulated burst regimes per cluster, then per-request volumes.
	w.ClusterBurst = make([][]int, cfg.Horizon)
	w.Occupancy = make([][]float64, cfg.Horizon)
	w.Volumes = make([][]float64, cfg.Horizon)
	state := make([]bool, cfg.NumClusters)
	for t := 0; t < cfg.Horizon; t++ {
		w.ClusterBurst[t] = make([]int, cfg.NumClusters)
		w.Occupancy[t] = make([]float64, cfg.NumClusters)
		for c := range state {
			if state[c] {
				state[c] = rng.Float64() < cfg.BurstStayProb
			} else {
				state[c] = rng.Float64() < cfg.BurstOnProb
			}
			if state[c] {
				w.ClusterBurst[t][c] = 1
			}
			occ := 1 + rng.NormFloat64()*0.3
			if state[c] {
				occ += 2
			}
			w.Occupancy[t][c] = occ
		}
		w.Volumes[t] = make([]float64, cfg.NumRequests)
		for l := range w.Requests {
			v := w.Requests[l].BasicDemand
			if w.ClusterBurst[t][w.Requests[l].Cluster] == 1 {
				// Exponential burst sizes around BurstScale: heavy enough to
				// matter, bounded to keep total demand below capacity.
				burst := rng.ExpFloat64() * cfg.BurstScale
				if burst > 4*cfg.BurstScale {
					burst = 4 * cfg.BurstScale
				}
				v += burst
			}
			w.Volumes[t][l] = v
		}
	}

	// Instantiation delays d^ins_{i,k}: base per service scaled by station
	// class (beefier cloudlets boot containers faster).
	w.InstDelayMS = make([][]float64, net.NumStations())
	for i := range w.InstDelayMS {
		factor := classInstFactor(net.Stations[i].Class)
		w.InstDelayMS[i] = make([]float64, cfg.NumServices)
		for k := range w.InstDelayMS[i] {
			w.InstDelayMS[i][k] = w.Services[k].BaseInstMS * factor * (0.9 + rng.Float64()*0.2)
		}
	}
	return w, nil
}

func validate(cfg Config) error {
	switch {
	case cfg.NumRequests <= 0:
		return fmt.Errorf("workload: NumRequests = %d, must be positive", cfg.NumRequests)
	case cfg.NumServices <= 0:
		return fmt.Errorf("workload: NumServices = %d, must be positive", cfg.NumServices)
	case cfg.Horizon <= 0:
		return fmt.Errorf("workload: Horizon = %d, must be positive", cfg.Horizon)
	case cfg.NumClusters <= 0:
		return fmt.Errorf("workload: NumClusters = %d, must be positive", cfg.NumClusters)
	case cfg.BasicDemandMin <= 0 || cfg.BasicDemandMax < cfg.BasicDemandMin:
		return fmt.Errorf("workload: bad basic demand range [%v,%v]", cfg.BasicDemandMin, cfg.BasicDemandMax)
	case cfg.BurstScale < 0:
		return fmt.Errorf("workload: BurstScale = %v, must be non-negative", cfg.BurstScale)
	case cfg.BurstOnProb < 0 || cfg.BurstOnProb > 1 || cfg.BurstStayProb < 0 || cfg.BurstStayProb > 1:
		return fmt.Errorf("workload: burst probabilities out of [0,1]")
	case cfg.SessionOffProb < 0 || cfg.SessionOffProb > 1 || cfg.SessionOnProb < 0 || cfg.SessionOnProb > 1:
		return fmt.Errorf("workload: session probabilities out of [0,1]")
	case cfg.CUnit <= 0:
		return fmt.Errorf("workload: CUnit = %v, must be positive", cfg.CUnit)
	}
	return nil
}

func classInstFactor(c mec.Class) float64 {
	switch c {
	case mec.Macro:
		return 0.8
	case mec.Micro:
		return 1.0
	case mec.Femto:
		return 1.3
	default:
		return 1.0
	}
}

// scaleToNetwork maps a unit-square hotspot position into the bounding box of
// the network's stations, with small per-user jitter.
func scaleToNetwork(net *mec.Network, ux, uy float64, rng *rand.Rand) (float64, float64) {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for i := range net.Stations {
		s := &net.Stations[i]
		minX, maxX = math.Min(minX, s.X), math.Max(maxX, s.X)
		minY, maxY = math.Min(minY, s.Y), math.Max(maxY, s.Y)
	}
	if maxX <= minX {
		maxX = minX + 1
	}
	if maxY <= minY {
		maxY = minY + 1
	}
	x := minX + ux*(maxX-minX) + rng.Float64()*10
	y := minY + uy*(maxY-minY) + rng.Float64()*10
	return x, y
}

// registerStation picks the covering station with the smallest radius
// (tightest cell wins, as in HetNet cell selection), falling back to the
// geometrically nearest station when uncovered.
func registerStation(net *mec.Network, x, y float64) int {
	best, bestRadius := -1, math.Inf(1)
	for i := range net.Stations {
		s := &net.Stations[i]
		if s.Covers(x, y) && s.RadiusM < bestRadius {
			best, bestRadius = i, s.RadiusM
		}
	}
	if best >= 0 {
		return best
	}
	bestD := math.Inf(1)
	for i := range net.Stations {
		dx, dy := net.Stations[i].X-x, net.Stations[i].Y-y
		if d := dx*dx + dy*dy; d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// Volume returns rho_l(t).
func (w *Workload) Volume(t, l int) float64 { return w.Volumes[t][l] }

// TotalDemand returns the summed data volume of the ACTIVE requests at
// slot t.
func (w *Workload) TotalDemand(t int) float64 {
	total := 0.0
	for l, v := range w.Volumes[t] {
		if w.Active[t][l] {
			total += v
		}
	}
	return total
}

// PeakComputeDemand returns the maximum over slots of total compute demand
// (C_unit * total volume), used to check the paper's assumption that
// aggregate station capacity exceeds total request demand.
func (w *Workload) PeakComputeDemand() float64 {
	peak := 0.0
	for t := range w.Volumes {
		if d := w.TotalDemand(t) * w.Config.CUnit; d > peak {
			peak = d
		}
	}
	return peak
}
