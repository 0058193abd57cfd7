package l4e

// Solver micro-benchmarks for the allocation-free hot path: each bench pits
// the fresh-allocation path (workspace built and discarded every solve)
// against the reusable-workspace path the simulator actually runs, with
// allocation counts reported so `make bench-json` records the reuse win.
// Per-iteration delay drift mirrors what a simulated slot does to the
// problem, so the workspace path is exercising its in-place rewrite branch,
// not a trivial cache hit.

import (
	"math/rand"
	"testing"

	"github.com/mecsim/l4e/internal/caching"
	"github.com/mecsim/l4e/internal/nn"
)

// benchCachingProblem builds a caching LP instance of the given shape.
func benchCachingProblem(seed int64, L, N, K int) *caching.Problem {
	rng := rand.New(rand.NewSource(seed))
	p := &caching.Problem{NumStations: N, NumServices: K, CUnit: 10}
	for l := 0; l < L; l++ {
		p.Requests = append(p.Requests, caching.RequestSpec{
			ID: l, Service: rng.Intn(K), Volume: 1 + rng.Float64()*3,
		})
	}
	p.CapacityMHz = make([]float64, N)
	p.UnitDelayMS = make([]float64, N)
	p.InstDelayMS = make([][]float64, N)
	for i := 0; i < N; i++ {
		p.CapacityMHz[i] = 300 + rng.Float64()*500
		p.UnitDelayMS[i] = 5 + rng.Float64()*40
		p.InstDelayMS[i] = make([]float64, K)
		for k := 0; k < K; k++ {
			p.InstDelayMS[i][k] = 2 + rng.Float64()*10
		}
	}
	return p
}

// driftBenchDelays perturbs per-station delays in place (the per-slot change).
func driftBenchDelays(rng *rand.Rand, p *caching.Problem) {
	for i := range p.UnitDelayMS {
		p.UnitDelayMS[i] = 5 + rng.Float64()*40
	}
}

// BenchmarkSolveLPFlow measures the min-cost-flow LP path at experiment scale
// (40 requests x 20 stations is above the exact-solver variable limit, so
// Solve dispatches it to the flow backend), fresh allocation vs workspace
// reuse.
func BenchmarkSolveLPFlow(b *testing.B) {
	for _, mode := range []string{"fresh", "workspace"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			p := benchCachingProblem(31, 40, 20, 5)
			rng := rand.New(rand.NewSource(32))
			var ws *caching.Workspace
			if mode == "workspace" {
				ws = caching.NewWorkspace()
				if _, err := p.Solve(ws); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				driftBenchDelays(rng, p)
				if _, err := p.Solve(ws); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveLPExact measures the dense-simplex LP path at its dispatch
// scale (8 requests x 6 stations stays under the exact-solver variable
// limit, so Solve dispatches it to the exact backend), fresh allocation vs
// workspace reuse.
func BenchmarkSolveLPExact(b *testing.B) {
	for _, mode := range []string{"fresh", "workspace"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			p := benchCachingProblem(33, 8, 6, 3)
			rng := rand.New(rand.NewSource(34))
			var ws *caching.Workspace
			if mode == "workspace" {
				ws = caching.NewWorkspace()
				if _, err := p.Solve(ws); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				driftBenchDelays(rng, p)
				if _, err := p.Solve(ws); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// driftBenchVolumes gives ~10% of requests a small demand jitter around their
// original volume (the bursty-slot change pattern: most requests quiet, a few
// moving).
func driftBenchVolumes(rng *rand.Rand, p *caching.Problem, base []float64) {
	for l := range p.Requests {
		if rng.Float64() < 0.1 {
			p.Requests[l].Volume = base[l] * (0.9 + 0.2*rng.Float64())
		}
	}
}

// incrementalBenchModes are the three solve paths BenchmarkIncrementalFlow
// pits against each other. They see the identical per-iteration drift and
// differ only in how much state they carry across slots (workspace drops its
// basis with ResetWarm before every solve).
var incrementalBenchModes = []string{"fresh", "workspace", "warm"}

// BenchmarkIncrementalFlow measures the min-cost-flow path at experiment
// scale under bursty demand drift (~10% of requests jitter per slot, the
// paper's bursty-user pattern): fresh allocation vs workspace reuse (both
// rebuild the network-simplex basis from scratch) vs the warm solve that
// re-optimises the carried basis.
func BenchmarkIncrementalFlow(b *testing.B) {
	for _, mode := range incrementalBenchModes {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			p := benchCachingProblem(31, 40, 20, 5)
			base := make([]float64, len(p.Requests))
			for l := range p.Requests {
				base[l] = p.Requests[l].Volume
			}
			rng := rand.New(rand.NewSource(32))
			var ws *caching.Workspace
			if mode != "fresh" {
				ws = caching.NewWorkspace()
				if _, err := p.Solve(ws); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				driftBenchVolumes(rng, p, base)
				if mode == "workspace" {
					ws.ResetWarm()
				}
				if _, err := p.Solve(ws); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLSTMStep measures one LSTM forward+backward over a GAN-sized
// window; after the first pass the layer's scratch pools make the step
// allocation-free.
func BenchmarkLSTMStep(b *testing.B) {
	b.ReportAllocs()
	const in, hidden, steps = 8, 10, 8
	rng := rand.New(rand.NewSource(35))
	l := nn.NewLSTM(in, hidden, rng)
	xs := make([][]float64, steps)
	dhs := make([][]float64, steps)
	for t := range xs {
		xs[t] = make([]float64, in)
		dhs[t] = make([]float64, hidden)
		for j := range xs[t] {
			xs[t][j] = rng.NormFloat64()
		}
		dhs[t][0] = 1
	}
	if _, err := l.Forward(xs); err != nil {
		b.Fatal(err)
	}
	if _, err := l.Backward(dhs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Forward(xs); err != nil {
			b.Fatal(err)
		}
		if _, err := l.Backward(dhs); err != nil {
			b.Fatal(err)
		}
	}
}
