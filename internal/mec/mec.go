// Package mec models a 5G-enabled heterogeneous mobile edge computing
// network G = (BS, E): macro/micro/femto base stations with attached
// cloudlets, their compute and bandwidth capacities, coverage geometry, and
// the per-slot unit-data processing-delay processes whose means the online
// learning algorithms must discover (Section III and VI-A of the paper).
package mec

import (
	"fmt"
	"math"
	"math/rand"
)

// Class is the tier of a base station.
type Class int

// Base-station tiers. RemoteDC models the remote data center in the core
// network where services originate before being cached.
const (
	Macro Class = iota + 1
	Micro
	Femto
	RemoteDC
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Macro:
		return "macro"
	case Micro:
		return "micro"
	case Femto:
		return "femto"
	case RemoteDC:
		return "remote-dc"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ClassParams bundles the per-tier parameter ranges of Section VI-A.
type ClassParams struct {
	// CapacityMin/Max is the cloudlet computing capacity range in MHz.
	CapacityMin, CapacityMax float64
	// BandwidthMin/Max is the access bandwidth range in Mbps.
	BandwidthMin, BandwidthMax float64
	// UnitDelayMin/Max bound the mean delay of processing one unit of data,
	// in milliseconds.
	UnitDelayMin, UnitDelayMax float64
	// RadiusM is the transmission radius in meters.
	RadiusM float64
	// TransmitPowerW is the transmit power in watts.
	TransmitPowerW float64
}

// DefaultParams returns the paper's Section VI-A parameter ranges for class c.
func DefaultParams(c Class) ClassParams {
	switch c {
	case Macro:
		return ClassParams{
			CapacityMin: 8000, CapacityMax: 16000,
			BandwidthMin: 500, BandwidthMax: 1000,
			UnitDelayMin: 30, UnitDelayMax: 50,
			RadiusM: 100, TransmitPowerW: 40,
		}
	case Micro:
		return ClassParams{
			CapacityMin: 5000, CapacityMax: 10000,
			BandwidthMin: 200, BandwidthMax: 500,
			UnitDelayMin: 10, UnitDelayMax: 20,
			RadiusM: 30, TransmitPowerW: 5,
		}
	case Femto:
		return ClassParams{
			CapacityMin: 1000, CapacityMax: 2000,
			BandwidthMin: 1000, BandwidthMax: 2000,
			UnitDelayMin: 5, UnitDelayMax: 10,
			RadiusM: 15, TransmitPowerW: 0.1,
		}
	case RemoteDC:
		return ClassParams{
			CapacityMin: 1e6, CapacityMax: 1e6,
			BandwidthMin: 1e4, BandwidthMax: 1e4,
			UnitDelayMin: 50, UnitDelayMax: 100,
			RadiusM: math.Inf(1), TransmitPowerW: 0,
		}
	default:
		return ClassParams{}
	}
}

// DelayProcess is the stationary random process X_i of the unit-data
// processing delay of one base station. Its mean theta is hidden from the
// learning algorithms; only per-slot samples are observable (on played arms).
type DelayProcess struct {
	// Mean is the true mean theta_i in milliseconds per data unit.
	Mean float64
	// Jitter is the half-width of the uniform noise around Mean.
	Jitter float64
	// Min/Max clamp samples, matching the "max and min known a priori"
	// assumption of Lemma 1.
	Min, Max float64
}

// Sample draws d_i(t) for one time slot.
func (d DelayProcess) Sample(rng *rand.Rand) float64 {
	v := d.Mean + (rng.Float64()*2-1)*d.Jitter
	if v < d.Min {
		v = d.Min
	}
	if v > d.Max {
		v = d.Max
	}
	return v
}

// BaseStation is one node of the MEC network.
type BaseStation struct {
	ID    int
	Class Class
	// X, Y is the planar position in meters.
	X, Y float64
	// CapacityMHz is the cloudlet computing capacity C(bs_i).
	CapacityMHz float64
	// BandwidthMbps is the access bandwidth.
	BandwidthMbps float64
	// RadiusM is the coverage radius.
	RadiusM float64
	// TransmitPowerW is the transmit power.
	TransmitPowerW float64
	// Delay is the hidden unit-data processing-delay process X_i.
	Delay DelayProcess
}

// Covers reports whether the point (x, y) lies within the station's
// transmission range.
func (b *BaseStation) Covers(x, y float64) bool {
	dx, dy := b.X-x, b.Y-y
	return math.Sqrt(dx*dx+dy*dy) <= b.RadiusM
}

// Link is an undirected edge of E with a propagation latency. Bottleneck
// links (low bandwidth relative to the rest of the topology) are what make
// real topologies such as AS1755 harder than synthetic ones.
type Link struct {
	A, B int
	// LatencyMS is the propagation latency in milliseconds.
	LatencyMS float64
	// BandwidthMbps is the link bandwidth.
	BandwidthMbps float64
}

// Network is the 5G heterogeneous MEC network G = (BS, E).
type Network struct {
	Stations []BaseStation
	Links    []Link
	// Name labels the topology (e.g. "gt-itm-100", "as1755").
	Name string

	adj [][]int // adjacency built lazily by Finalize
}

// NewNetwork returns an empty network with the given name.
func NewNetwork(name string) *Network {
	return &Network{Name: name}
}

// AddStation appends a station, assigning its ID, and returns the ID.
func (n *Network) AddStation(bs BaseStation) int {
	bs.ID = len(n.Stations)
	n.Stations = append(n.Stations, bs)
	n.adj = nil
	return bs.ID
}

// AddLink appends an undirected link between existing stations.
func (n *Network) AddLink(a, b int, latencyMS, bandwidthMbps float64) error {
	if a < 0 || a >= len(n.Stations) || b < 0 || b >= len(n.Stations) {
		return fmt.Errorf("mec: link (%d,%d) references unknown station (have %d)", a, b, len(n.Stations))
	}
	if a == b {
		return fmt.Errorf("mec: self-loop on station %d", a)
	}
	n.Links = append(n.Links, Link{A: a, B: b, LatencyMS: latencyMS, BandwidthMbps: bandwidthMbps})
	n.adj = nil
	return nil
}

// NumStations reports the number of base stations.
func (n *Network) NumStations() int { return len(n.Stations) }

// Neighbors returns the station IDs adjacent to id. The returned slice is
// shared; callers must not modify it.
func (n *Network) Neighbors(id int) []int {
	if n.adj == nil {
		n.buildAdj()
	}
	return n.adj[id]
}

func (n *Network) buildAdj() {
	n.adj = make([][]int, len(n.Stations))
	for _, l := range n.Links {
		n.adj[l.A] = append(n.adj[l.A], l.B)
		n.adj[l.B] = append(n.adj[l.B], l.A)
	}
}

// Degree returns the number of links incident to station id.
func (n *Network) Degree(id int) int { return len(n.Neighbors(id)) }

// StationsCovering returns IDs of all stations whose range covers (x, y).
func (n *Network) StationsCovering(x, y float64) []int {
	var out []int
	for i := range n.Stations {
		if n.Stations[i].Covers(x, y) {
			out = append(out, i)
		}
	}
	return out
}

// SampleDelays draws the slot's unit-data processing delay d_i(t) for every
// station. The result is indexed by station ID.
func (n *Network) SampleDelays(rng *rand.Rand) []float64 {
	out := make([]float64, len(n.Stations))
	for i := range n.Stations {
		out[i] = n.Stations[i].Delay.Sample(rng)
	}
	return out
}

// TotalCapacity sums C(bs_i) over all stations.
func (n *Network) TotalCapacity() float64 {
	total := 0.0
	for i := range n.Stations {
		total += n.Stations[i].CapacityMHz
	}
	return total
}

// ShortestLatency computes the all-hops minimum propagation latency from src
// to every station over E (Dijkstra). Unreachable stations get +Inf.
func (n *Network) ShortestLatency(src int) []float64 {
	if src < 0 || src >= len(n.Stations) {
		return nil
	}
	if n.adj == nil {
		n.buildAdj()
	}
	type linkRef struct {
		to int
		w  float64
	}
	edges := make([][]linkRef, len(n.Stations))
	for _, l := range n.Links {
		edges[l.A] = append(edges[l.A], linkRef{to: l.B, w: l.LatencyMS})
		edges[l.B] = append(edges[l.B], linkRef{to: l.A, w: l.LatencyMS})
	}
	dist := make([]float64, len(n.Stations))
	done := make([]bool, len(n.Stations))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for {
		u, best := -1, math.Inf(1)
		for i, d := range dist {
			if !done[i] && d < best {
				u, best = i, d
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		for _, e := range edges[u] {
			if nd := dist[u] + e.w; nd < dist[e.to] {
				dist[e.to] = nd
			}
		}
	}
	return dist
}

// NewStation builds a station of class c positioned at (x, y), drawing its
// capacity, bandwidth, and hidden delay process from the class ranges.
func NewStation(c Class, x, y float64, params ClassParams, rng *rand.Rand) BaseStation {
	uniform := func(lo, hi float64) float64 {
		if hi <= lo {
			return lo
		}
		return lo + rng.Float64()*(hi-lo)
	}
	mean := uniform(params.UnitDelayMin, params.UnitDelayMax)
	jitter := (params.UnitDelayMax - params.UnitDelayMin) / 4
	return BaseStation{
		Class:          c,
		X:              x,
		Y:              y,
		CapacityMHz:    uniform(params.CapacityMin, params.CapacityMax),
		BandwidthMbps:  uniform(params.BandwidthMin, params.BandwidthMax),
		RadiusM:        params.RadiusM,
		TransmitPowerW: params.TransmitPowerW,
		Delay: DelayProcess{
			Mean:   mean,
			Jitter: jitter,
			Min:    params.UnitDelayMin,
			Max:    params.UnitDelayMax,
		},
	}
}
