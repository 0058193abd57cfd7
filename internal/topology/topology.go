// Package topology builds MEC network instances: GT-ITM-style synthetic
// random topologies (the paper generates each synthetic network with GT-ITM
// and a pairwise connection probability of 0.1) and a deterministic
// AS1755-like real ISP topology (Ebone, Rocketfuel; 87 PoP-level nodes and
// 161 links) with explicit bottleneck links.
package topology

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/mecsim/l4e/internal/mec"
)

// Mix describes the fraction of base stations in each tier. Fractions must
// be non-negative and sum to at most 1; the remainder becomes femto cells.
type Mix struct {
	MacroFrac float64
	MicroFrac float64
}

// DefaultMix reflects deployment practice: few macros, more micros, mostly
// femto cells.
func DefaultMix() Mix { return Mix{MacroFrac: 0.06, MicroFrac: 0.3} }

// Option customises topology generation.
type Option func(*config)

type config struct {
	mix         Mix
	connectProb float64
	areaM       float64
}

// WithConnectProb sets the pairwise link probability (paper: 0.1).
func WithConnectProb(p float64) Option { return func(c *config) { c.connectProb = p } }

// GTITM generates an n-station synthetic 5G MEC topology in the style of
// GT-ITM's flat random model: macro stations at cluster centers, micro and
// femto stations placed within macro coverage, plus random pairwise links
// with the configured probability and a connectivity backbone.
func GTITM(n int, seed int64, opts ...Option) (*mec.Network, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: need at least 2 stations, got %d", n)
	}
	cfg := config{mix: DefaultMix(), connectProb: 0.1, areaM: 1000}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.mix.MacroFrac < 0 || cfg.mix.MicroFrac < 0 || cfg.mix.MacroFrac+cfg.mix.MicroFrac > 1 {
		return nil, fmt.Errorf("topology: invalid tier mix %+v", cfg.mix)
	}
	if cfg.connectProb < 0 || cfg.connectProb > 1 {
		return nil, fmt.Errorf("topology: connect probability %v out of [0,1]", cfg.connectProb)
	}

	rng := rand.New(rand.NewSource(seed))
	net := mec.NewNetwork(fmt.Sprintf("gt-itm-%d", n))

	nMacro := int(math.Max(1, math.Round(float64(n)*cfg.mix.MacroFrac)))
	nMicro := int(math.Round(float64(n) * cfg.mix.MicroFrac))
	if nMacro+nMicro > n {
		nMicro = n - nMacro
	}
	nFemto := n - nMacro - nMicro

	// Macro stations on a jittered grid across the area.
	side := int(math.Ceil(math.Sqrt(float64(nMacro))))
	cell := cfg.areaM / float64(side)
	macroIDs := make([]int, 0, nMacro)
	for i := 0; i < nMacro; i++ {
		gx, gy := i%side, i/side
		x := (float64(gx)+0.5)*cell + (rng.Float64()-0.5)*cell*0.3
		y := (float64(gy)+0.5)*cell + (rng.Float64()-0.5)*cell*0.3
		id := net.AddStation(mec.NewStation(mec.Macro, x, y, mec.DefaultParams(mec.Macro), rng))
		macroIDs = append(macroIDs, id)
	}

	// Micro and femto stations uniformly within a random macro's range.
	placeNear := func(class mec.Class, count int) {
		params := mec.DefaultParams(class)
		for i := 0; i < count; i++ {
			anchor := net.Stations[macroIDs[rng.Intn(len(macroIDs))]]
			r := anchor.RadiusM * math.Sqrt(rng.Float64())
			phi := rng.Float64() * 2 * math.Pi
			x := anchor.X + r*math.Cos(phi)
			y := anchor.Y + r*math.Sin(phi)
			net.AddStation(mec.NewStation(class, x, y, params, rng))
		}
	}
	placeNear(mec.Micro, nMicro)
	placeNear(mec.Femto, nFemto)

	// Backbone: every non-macro station links to its nearest macro; macros
	// form a ring so the network is connected.
	for i := range net.Stations {
		if net.Stations[i].Class == mec.Macro {
			continue
		}
		best, bestD := -1, math.Inf(1)
		for _, m := range macroIDs {
			dx := net.Stations[i].X - net.Stations[m].X
			dy := net.Stations[i].Y - net.Stations[m].Y
			if d := dx*dx + dy*dy; d < bestD {
				best, bestD = m, d
			}
		}
		if err := net.AddLink(i, best, 1+rng.Float64()*2, 1000); err != nil {
			return nil, err
		}
	}
	for i := 0; i < len(macroIDs); i++ {
		a, b := macroIDs[i], macroIDs[(i+1)%len(macroIDs)]
		if a == b {
			continue
		}
		if err := net.AddLink(a, b, 2+rng.Float64()*3, 10000); err != nil {
			return nil, err
		}
	}

	// Random pairwise links with probability p (GT-ITM flat random model).
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < cfg.connectProb {
				if err := net.AddLink(i, j, 1+rng.Float64()*4, 100+rng.Float64()*900); err != nil {
					return nil, err
				}
			}
		}
	}
	return net, nil
}

// AS1755 builds a deterministic AS1755-like topology (Ebone, PoP level:
// 87 nodes, 161 links) with a small high-degree backbone, regional
// aggregation tiers, and explicitly higher-latency bottleneck links between
// regions. Station attributes (capacities, hidden delay means) are drawn from
// the Section VI-A ranges using the provided seed, so repeated runs over the
// same structure sample different cloudlet configurations, mirroring the
// paper's "80 different topologies" averaging.
func AS1755(seed int64) (*mec.Network, error) {
	rng := rand.New(rand.NewSource(seed))
	net := mec.NewNetwork("as1755")

	const (
		nBackbone = 9  // core PoPs, modeled as macro stations
		nRegional = 26 // regional PoPs, micro
		nAccess   = 52 // access PoPs, femto
	)
	// 9 + 26 + 52 = 87 nodes, matching the Rocketfuel PoP-level map size.

	// Backbone ring with chords, spread on a large circle.
	backbone := make([]int, 0, nBackbone)
	for i := 0; i < nBackbone; i++ {
		phi := 2 * math.Pi * float64(i) / nBackbone
		x := 2000 + 1500*math.Cos(phi)
		y := 2000 + 1500*math.Sin(phi)
		id := net.AddStation(mec.NewStation(mec.Macro, x, y, mec.DefaultParams(mec.Macro), rng))
		backbone = append(backbone, id)
	}
	links := 0
	addLink := func(a, b int, lat, bw float64) error {
		links++
		return net.AddLink(a, b, lat, bw)
	}
	for i := 0; i < nBackbone; i++ {
		if err := addLink(backbone[i], backbone[(i+1)%nBackbone], 3, 10000); err != nil {
			return nil, err
		}
	}
	// Chords across the ring (hub structure).
	chords := [][2]int{{0, 3}, {0, 5}, {1, 4}, {1, 6}, {2, 7}, {3, 8}, {4, 8}, {2, 5}}
	for _, c := range chords {
		if err := addLink(backbone[c[0]], backbone[c[1]], 5, 8000); err != nil {
			return nil, err
		}
	}

	// Regional PoPs: each dual-homed to two backbone nodes through a
	// BOTTLENECK link (high latency, low bandwidth) and a normal link. Real
	// ISP maps show exactly this inter-region asymmetry.
	regional := make([]int, 0, nRegional)
	for i := 0; i < nRegional; i++ {
		h1 := backbone[i%nBackbone]
		phi := 2 * math.Pi * float64(i) / nRegional
		x := 2000 + 900*math.Cos(phi) + rng.Float64()*100
		y := 2000 + 900*math.Sin(phi) + rng.Float64()*100
		id := net.AddStation(mec.NewStation(mec.Micro, x, y, mec.DefaultParams(mec.Micro), rng))
		regional = append(regional, id)
		if err := addLink(id, h1, 8+rng.Float64()*6, 300); err != nil { // bottleneck
			return nil, err
		}
		h2 := backbone[(i+3)%nBackbone]
		if err := addLink(id, h2, 4+rng.Float64()*2, 2000); err != nil {
			return nil, err
		}
	}

	// Access PoPs: two per regional node, single-homed (tree edges).
	for i := 0; i < nAccess; i++ {
		parent := regional[i%nRegional]
		px, py := net.Stations[parent].X, net.Stations[parent].Y
		x := px + (rng.Float64()-0.5)*120
		y := py + (rng.Float64()-0.5)*120
		id := net.AddStation(mec.NewStation(mec.Femto, x, y, mec.DefaultParams(mec.Femto), rng))
		if err := addLink(id, parent, 1+rng.Float64()*2, 500); err != nil {
			return nil, err
		}
	}

	// Fill remaining links with random regional-regional chords until the
	// link count matches the PoP-level map (161).
	const wantLinks = 161
	for links < wantLinks {
		a := regional[rng.Intn(nRegional)]
		b := regional[rng.Intn(nRegional)]
		if a == b {
			continue
		}
		if err := addLink(a, b, 6+rng.Float64()*8, 400); err != nil {
			return nil, err
		}
	}
	return net, nil
}

// IsConnected reports whether the network is a single connected component.
func IsConnected(net *mec.Network) bool {
	n := net.NumStations()
	if n == 0 {
		return false
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range net.Neighbors(u) {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == n
}
