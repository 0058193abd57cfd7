package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// gruCache stores one step's intermediate activations for BPTT.
type gruCache struct {
	x       []float64
	z, r, g []float64 // update gate, reset gate, candidate
	hPrev   []float64
	h       []float64
}

// GRU is a single-direction gated recurrent unit over sequences with full
// BPTT. It is the lighter alternative to LSTM used by the generator-cell
// ablation: h_t = (1-z_t)*h_{t-1} + z_t * g_t with
// g_t = tanh(Wg x_t + Ug (r_t ⊙ h_{t-1}) + bg).
type GRU struct {
	in, hidden int
	wx         *Param // 3H x I, gate order [z r g]
	wh         *Param // 3H x H
	b          *Param // 3H
	caches     []gruCache
}

// NewGRU builds a GRU with the given input and hidden sizes.
func NewGRU(in, hidden int, rng *rand.Rand) *GRU {
	return &GRU{
		in:     in,
		hidden: hidden,
		wx:     newParam("gru.wx", 3*hidden*in, in+hidden, hidden, rng),
		wh:     newParam("gru.wh", 3*hidden*hidden, in+hidden, hidden, rng),
		b:      newParam("gru.b", 3*hidden, 0, 0, rng),
	}
}

// Params implements Module.
func (g *GRU) Params() []*Param { return []*Param{g.wx, g.wh, g.b} }

// Forward runs the sequence and returns hidden states h_1..h_T.
func (g *GRU) Forward(xs [][]float64) ([][]float64, error) {
	H := g.hidden
	g.caches = make([]gruCache, 0, len(xs))
	h := make([]float64, H)
	hs := make([][]float64, len(xs))
	for t, x := range xs {
		if len(x) != g.in {
			return nil, fmt.Errorf("nn: gru input %d has size %d, want %d", t, len(x), g.in)
		}
		// Pre-activations for z and r (they use h_{t-1} directly).
		preZ := make([]float64, H)
		preR := make([]float64, H)
		for j := 0; j < H; j++ {
			sz := g.b.W[j]
			sr := g.b.W[H+j]
			rowZx := g.wx.W[j*g.in : (j+1)*g.in]
			rowRx := g.wx.W[(H+j)*g.in : (H+j+1)*g.in]
			for i, xi := range x {
				sz += rowZx[i] * xi
				sr += rowRx[i] * xi
			}
			rowZh := g.wh.W[j*H : (j+1)*H]
			rowRh := g.wh.W[(H+j)*H : (H+j+1)*H]
			for i, hi := range h {
				sz += rowZh[i] * hi
				sr += rowRh[i] * hi
			}
			preZ[j] = sz
			preR[j] = sr
		}
		cache := gruCache{
			x:     x,
			z:     make([]float64, H),
			r:     make([]float64, H),
			g:     make([]float64, H),
			hPrev: h,
			h:     make([]float64, H),
		}
		for j := 0; j < H; j++ {
			cache.z[j] = Sigmoid(preZ[j])
			cache.r[j] = Sigmoid(preR[j])
		}
		// Candidate uses the reset-gated hidden state.
		newH := make([]float64, H)
		for j := 0; j < H; j++ {
			s := g.b.W[2*H+j]
			rowGx := g.wx.W[(2*H+j)*g.in : (2*H+j+1)*g.in]
			for i, xi := range x {
				s += rowGx[i] * xi
			}
			rowGh := g.wh.W[(2*H+j)*H : (2*H+j+1)*H]
			for i := 0; i < H; i++ {
				s += rowGh[i] * cache.r[i] * h[i]
			}
			cache.g[j] = math.Tanh(s)
			newH[j] = (1-cache.z[j])*h[j] + cache.z[j]*cache.g[j]
		}
		copy(cache.h, newH)
		h = newH
		hs[t] = newH
		g.caches = append(g.caches, cache)
	}
	return hs, nil
}

// Backward consumes gradients on the hidden states and returns input
// gradients, accumulating parameter gradients (BPTT).
func (g *GRU) Backward(dhs [][]float64) ([][]float64, error) {
	if len(dhs) != len(g.caches) {
		return nil, fmt.Errorf("nn: gru backward got %d steps, forward had %d", len(dhs), len(g.caches))
	}
	H := g.hidden
	dxs := make([][]float64, len(dhs))
	dhNext := make([]float64, H)
	for t := len(dhs) - 1; t >= 0; t-- {
		cache := &g.caches[t]
		if len(dhs[t]) != H {
			return nil, fmt.Errorf("nn: gru upstream grad %d has size %d, want %d", t, len(dhs[t]), H)
		}
		dh := make([]float64, H)
		for j := 0; j < H; j++ {
			dh[j] = dhs[t][j] + dhNext[j]
		}
		dPreZ := make([]float64, H)
		dPreR := make([]float64, H)
		dPreG := make([]float64, H)
		dhPrev := make([]float64, H)
		// dg flows into the reset-gated product r ⊙ h_prev.
		dGatedH := make([]float64, H)
		for j := 0; j < H; j++ {
			dz := dh[j] * (cache.g[j] - cache.hPrev[j])
			dg := dh[j] * cache.z[j]
			dhPrev[j] += dh[j] * (1 - cache.z[j])
			dPreZ[j] = dz * cache.z[j] * (1 - cache.z[j])
			dPreG[j] = dg * (1 - cache.g[j]*cache.g[j])
		}
		// Backprop candidate pre-activation through Ug (r ⊙ h_prev).
		for j := 0; j < H; j++ {
			rowGh := g.wh.W[(2*H+j)*H : (2*H+j+1)*H]
			gRowGh := g.wh.G[(2*H+j)*H : (2*H+j+1)*H]
			for i := 0; i < H; i++ {
				gRowGh[i] += dPreG[j] * cache.r[i] * cache.hPrev[i]
				dGatedH[i] += dPreG[j] * rowGh[i]
			}
		}
		for i := 0; i < H; i++ {
			dr := dGatedH[i] * cache.hPrev[i]
			dhPrev[i] += dGatedH[i] * cache.r[i]
			dPreR[i] = dr * cache.r[i] * (1 - cache.r[i])
		}
		// Accumulate z/r/g input and recurrent weight gradients.
		dx := make([]float64, g.in)
		accum := func(offset int, dPre []float64, useHPrevRows bool) {
			for j := 0; j < H; j++ {
				gj := dPre[j]
				if gj == 0 {
					continue
				}
				g.b.G[offset*H+j] += gj
				rowX := g.wx.W[(offset*H+j)*g.in : (offset*H+j+1)*g.in]
				gRowX := g.wx.G[(offset*H+j)*g.in : (offset*H+j+1)*g.in]
				for i := range cache.x {
					gRowX[i] += gj * cache.x[i]
					dx[i] += gj * rowX[i]
				}
				if useHPrevRows {
					rowH := g.wh.W[(offset*H+j)*H : (offset*H+j+1)*H]
					gRowH := g.wh.G[(offset*H+j)*H : (offset*H+j+1)*H]
					for i := 0; i < H; i++ {
						gRowH[i] += gj * cache.hPrev[i]
						dhPrev[i] += gj * rowH[i]
					}
				}
			}
		}
		accum(0, dPreZ, true)
		accum(1, dPreR, true)
		accum(2, dPreG, false) // candidate recurrent grads handled above
		dxs[t] = dx
		dhNext = dhPrev
	}
	return dxs, nil
}

var _ Module = (*GRU)(nil)
