// Package nn is a minimal, dependency-free neural-network substrate built
// for the Info-RNN-GAN of Section V: dense layers, LSTM and bidirectional
// LSTM sequence modules with full backpropagation through time, standard
// activations and losses, and SGD/Adam optimizers. The Go ecosystem has no
// stdlib deep-learning stack, so the substrate is implemented from scratch;
// dimensions in this system are small (the paper's whole point is learning
// from SMALL samples), which keeps pure-Go CPU training fast.
//
// Design: modules operate on sequences ([][]float64, one vector per time
// slot). Forward passes cache activations; Backward consumes upstream
// gradients in the same shape, accumulates parameter gradients, and returns
// input gradients. Parameters are exposed through Params() for optimizers.
//
// Buffer lifetime: modules own their activation and gradient scratch and
// reuse it across calls, so per-step training allocates nothing once the
// buffers have grown. The sequences returned by a module's Forward are valid
// until its next Forward, and those returned by Backward until its next
// Backward — copy anything that must outlive the next call. Forward and
// Backward use disjoint storage, so a Backward result survives interleaved
// Forward calls (as the numerical gradient checks rely on).
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Param is one learnable tensor (flattened) with its gradient accumulator.
type Param struct {
	Name string
	W    []float64
	G    []float64
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// Module is any component with learnable parameters.
type Module interface {
	Params() []*Param
}

// ZeroGrads clears gradients of every parameter in the modules.
func ZeroGrads(ms ...Module) {
	for _, m := range ms {
		for _, p := range m.Params() {
			p.ZeroGrad()
		}
	}
}

// newParam allocates a parameter with Xavier/Glorot uniform initialisation
// for a fanIn x fanOut weight (pass fanOut 0 for bias-like zero init).
func newParam(name string, size, fanIn, fanOut int, rng *rand.Rand) *Param {
	p := &Param{Name: name, W: make([]float64, size), G: make([]float64, size)}
	if fanOut > 0 {
		limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
		for i := range p.W {
			p.W[i] = (rng.Float64()*2 - 1) * limit
		}
	}
	return p
}

// SeqBuf is a reusable sequence arena: T rows of dim floats carved from one
// backing slab, regrown only when a larger shape is requested.
type SeqBuf struct {
	rows [][]float64
	back []float64
}

// Get returns a zeroed T x dim matrix backed by the arena.
func (s *SeqBuf) Get(T, dim int) [][]float64 {
	n := T * dim
	if cap(s.back) < n {
		s.back = make([]float64, n)
	} else {
		s.back = s.back[:n]
		for i := range s.back {
			s.back[i] = 0
		}
	}
	if cap(s.rows) < T {
		s.rows = make([][]float64, T)
	} else {
		s.rows = s.rows[:T]
	}
	for t := 0; t < T; t++ {
		s.rows[t] = s.back[t*dim : (t+1)*dim]
	}
	return s.rows
}

// GrowVec returns a zeroed length-n vector, reusing buf's storage.
func GrowVec(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// Sigmoid is the logistic function.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Softplus is log(1+e^x), a smooth positive activation.
func Softplus(x float64) float64 {
	if x > 30 {
		return x
	}
	return math.Log1p(math.Exp(x))
}

// Softmax returns the softmax of v (numerically stable).
func Softmax(v []float64) []float64 {
	maxV := math.Inf(-1)
	for _, x := range v {
		if x > maxV {
			maxV = x
		}
	}
	out := make([]float64, len(v))
	sum := 0.0
	for i, x := range v {
		out[i] = math.Exp(x - maxV)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Dense is a fully connected layer applied independently per time step:
// y_t = W x_t + b.
type Dense struct {
	in, out int
	w, b    *Param
	xs      [][]float64 // cached inputs of the last Forward
	fwdBuf  SeqBuf      // Forward outputs
	bwdBuf  SeqBuf      // Backward input gradients
}

// NewDense builds an in -> out affine layer.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	return &Dense{
		in:  in,
		out: out,
		w:   newParam("dense.w", out*in, in, out, rng),
		b:   newParam("dense.b", out, 0, 0, rng),
	}
}

// Params implements Module.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// Forward applies the layer to each step of the sequence.
func (d *Dense) Forward(xs [][]float64) ([][]float64, error) {
	ys := d.fwdBuf.Get(len(xs), d.out)
	for t, x := range xs {
		if len(x) != d.in {
			return nil, fmt.Errorf("nn: dense input %d has size %d, want %d", t, len(x), d.in)
		}
		y := ys[t]
		for o := 0; o < d.out; o++ {
			s := d.b.W[o]
			row := d.w.W[o*d.in : (o+1)*d.in]
			for i, xi := range x {
				s += row[i] * xi
			}
			y[o] = s
		}
	}
	d.xs = xs
	return ys, nil
}

// Backward consumes upstream gradients, accumulates dW/dB, and returns input
// gradients. Must follow a Forward with a matching sequence length.
func (d *Dense) Backward(dys [][]float64) ([][]float64, error) {
	if len(dys) != len(d.xs) {
		return nil, fmt.Errorf("nn: dense backward got %d steps, forward had %d", len(dys), len(d.xs))
	}
	dxs := d.bwdBuf.Get(len(dys), d.in)
	for t, dy := range dys {
		if len(dy) != d.out {
			return nil, fmt.Errorf("nn: dense upstream grad %d has size %d, want %d", t, len(dy), d.out)
		}
		x := d.xs[t]
		dx := dxs[t]
		for o := 0; o < d.out; o++ {
			g := dy[o]
			if g == 0 {
				continue
			}
			d.b.G[o] += g
			row := d.w.W[o*d.in : (o+1)*d.in]
			gRow := d.w.G[o*d.in : (o+1)*d.in]
			for i := range x {
				gRow[i] += g * x[i]
				dx[i] += g * row[i]
			}
		}
	}
	return dxs, nil
}

// lstmCache stores one step's intermediate activations for BPTT.
type lstmCache struct {
	x          []float64
	i, f, o, g []float64 // gate activations
	c, h       []float64 // cell and hidden states after the step
	cPrev      []float64
	hPrev      []float64
	tanhC      []float64
}

// LSTM is a single-direction LSTM over sequences with full BPTT.
type LSTM struct {
	in, hidden int
	wx         *Param // 4H x I, gate order [i f o g]
	wh         *Param // 4H x H
	b          *Param // 4H
	caches     []lstmCache

	// Forward scratch: one 7H row per step holds the gate activations and
	// states (i f o g c h tanhC), plus the zero initial state, the
	// pre-activation accumulator, and the returned hidden-state row headers.
	fwdBuf SeqBuf
	hc0    []float64
	pre    []float64
	hsOut  [][]float64

	// Backward scratch: input gradients plus per-step work vectors. dhPrev/
	// dcPrev ping-pong between the A and B halves so the gradients flowing
	// into step t-1 never overwrite the ones being read at step t.
	bwdBuf   SeqBuf
	dh, dPre []float64
	dhA, dhB []float64
	dcA, dcB []float64
}

// NewLSTM builds an LSTM with the given input and hidden sizes. The forget
// gate bias is initialised to 1 (standard practice for gradient flow).
func NewLSTM(in, hidden int, rng *rand.Rand) *LSTM {
	l := &LSTM{
		in:     in,
		hidden: hidden,
		wx:     newParam("lstm.wx", 4*hidden*in, in+hidden, hidden, rng),
		wh:     newParam("lstm.wh", 4*hidden*hidden, in+hidden, hidden, rng),
		b:      newParam("lstm.b", 4*hidden, 0, 0, rng),
	}
	for j := hidden; j < 2*hidden; j++ { // forget-gate block
		l.b.W[j] = 1
	}
	return l
}

// Params implements Module.
func (l *LSTM) Params() []*Param { return []*Param{l.wx, l.wh, l.b} }

// Forward runs the sequence and returns hidden states h_1..h_T. The returned
// rows alias module-owned storage and are valid until the next Forward.
func (l *LSTM) Forward(xs [][]float64) ([][]float64, error) {
	H := l.hidden
	T := len(xs)
	slab := l.fwdBuf.Get(T, 7*H)
	if cap(l.caches) < T {
		l.caches = make([]lstmCache, T)
	}
	l.caches = l.caches[:T]
	if cap(l.hsOut) < T {
		l.hsOut = make([][]float64, T)
	}
	hs := l.hsOut[:T]
	l.hc0 = GrowVec(l.hc0, 2*H)
	h := l.hc0[:H]
	c := l.hc0[H:]
	l.pre = GrowVec(l.pre, 4*H)
	pre := l.pre
	for t, x := range xs {
		if len(x) != l.in {
			return nil, fmt.Errorf("nn: lstm input %d has size %d, want %d", t, len(x), l.in)
		}
		copy(pre, l.b.W)
		for j := 0; j < 4*H; j++ {
			rowX := l.wx.W[j*l.in : (j+1)*l.in]
			s := pre[j]
			for i, xi := range x {
				s += rowX[i] * xi
			}
			rowH := l.wh.W[j*H : (j+1)*H]
			for i, hi := range h {
				s += rowH[i] * hi
			}
			pre[j] = s
		}
		row := slab[t]
		cache := &l.caches[t]
		*cache = lstmCache{
			x:     x,
			i:     row[0*H : 1*H],
			f:     row[1*H : 2*H],
			o:     row[2*H : 3*H],
			g:     row[3*H : 4*H],
			c:     row[4*H : 5*H],
			h:     row[5*H : 6*H],
			tanhC: row[6*H : 7*H],
			cPrev: c,
			hPrev: h,
		}
		for j := 0; j < H; j++ {
			cache.i[j] = Sigmoid(pre[j])
			cache.f[j] = Sigmoid(pre[H+j])
			cache.o[j] = Sigmoid(pre[2*H+j])
			cache.g[j] = math.Tanh(pre[3*H+j])
			cache.c[j] = cache.f[j]*c[j] + cache.i[j]*cache.g[j]
			cache.tanhC[j] = math.Tanh(cache.c[j])
			cache.h[j] = cache.o[j] * cache.tanhC[j]
		}
		c, h = cache.c, cache.h
		hs[t] = cache.h
	}
	return hs, nil
}

// Backward consumes gradients on the hidden states and returns input
// gradients, accumulating parameter gradients (BPTT).
func (l *LSTM) Backward(dhs [][]float64) ([][]float64, error) {
	if len(dhs) != len(l.caches) {
		return nil, fmt.Errorf("nn: lstm backward got %d steps, forward had %d", len(dhs), len(l.caches))
	}
	H := l.hidden
	dxs := l.bwdBuf.Get(len(dhs), l.in)
	l.dh = GrowVec(l.dh, H)
	l.dPre = GrowVec(l.dPre, 4*H)
	l.dhA = GrowVec(l.dhA, H)
	l.dhB = GrowVec(l.dhB, H)
	l.dcA = GrowVec(l.dcA, H)
	l.dcB = GrowVec(l.dcB, H)
	dh, dPre := l.dh, l.dPre
	dhNext, dcNext := l.dhA, l.dcA
	dhPrevBuf, dcPrevBuf := l.dhB, l.dcB
	for t := len(dhs) - 1; t >= 0; t-- {
		cache := &l.caches[t]
		if len(dhs[t]) != H {
			return nil, fmt.Errorf("nn: lstm upstream grad %d has size %d, want %d", t, len(dhs[t]), H)
		}
		for j := 0; j < H; j++ {
			dh[j] = dhs[t][j] + dhNext[j]
		}
		dcPrev := dcPrevBuf
		for j := 0; j < H; j++ {
			do := dh[j] * cache.tanhC[j]
			dc := dh[j]*cache.o[j]*(1-cache.tanhC[j]*cache.tanhC[j]) + dcNext[j]
			di := dc * cache.g[j]
			df := dc * cache.cPrev[j]
			dg := dc * cache.i[j]
			dcPrev[j] = dc * cache.f[j]
			dPre[j] = di * cache.i[j] * (1 - cache.i[j])
			dPre[H+j] = df * cache.f[j] * (1 - cache.f[j])
			dPre[2*H+j] = do * cache.o[j] * (1 - cache.o[j])
			dPre[3*H+j] = dg * (1 - cache.g[j]*cache.g[j])
		}
		dx := dxs[t]
		dhPrev := dhPrevBuf
		for j := range dhPrev {
			dhPrev[j] = 0
		}
		for j := 0; j < 4*H; j++ {
			g := dPre[j]
			if g == 0 {
				continue
			}
			l.b.G[j] += g
			rowX := l.wx.W[j*l.in : (j+1)*l.in]
			gRowX := l.wx.G[j*l.in : (j+1)*l.in]
			for i := range cache.x {
				gRowX[i] += g * cache.x[i]
				dx[i] += g * rowX[i]
			}
			rowH := l.wh.W[j*H : (j+1)*H]
			gRowH := l.wh.G[j*H : (j+1)*H]
			for i := range cache.hPrev {
				gRowH[i] += g * cache.hPrev[i]
				dhPrev[i] += g * rowH[i]
			}
		}
		// Ping-pong: the gradients just produced become next step's inputs,
		// and the buffers just consumed are free to be overwritten.
		dhNext, dhPrevBuf = dhPrev, dhNext
		dcNext, dcPrevBuf = dcPrev, dcNext
	}
	return dxs, nil
}

// BiLSTM runs a forward and a backward LSTM over the sequence and
// concatenates their hidden states per step (output size 2H). This is the
// bidirectional two-layer loop RNN of the paper's generator/discriminator.
type BiLSTM struct {
	fwd, bwd *LSTM
	// Pooled scratch: reversed-sequence row headers and the concatenated
	// output / split-gradient slabs.
	revIn, revHb, revDx   [][]float64
	outBuf                SeqBuf
	dhfBuf, dhbBuf, dxBuf SeqBuf
}

// NewBiLSTM builds a bidirectional LSTM with per-direction hidden size H.
func NewBiLSTM(in, hidden int, rng *rand.Rand) *BiLSTM {
	return &BiLSTM{fwd: NewLSTM(in, hidden, rng), bwd: NewLSTM(in, hidden, rng)}
}

// Params implements Module.
func (b *BiLSTM) Params() []*Param {
	return append(b.fwd.Params(), b.bwd.Params()...)
}

// Forward returns per-step concatenations [h_fwd_t ; h_bwd_t]. The returned
// rows alias module-owned storage and are valid until the next Forward.
func (b *BiLSTM) Forward(xs [][]float64) ([][]float64, error) {
	hf, err := b.fwd.Forward(xs)
	if err != nil {
		return nil, err
	}
	b.revIn = reverseInto(b.revIn, xs)
	hbRev, err := b.bwd.Forward(b.revIn)
	if err != nil {
		return nil, err
	}
	b.revHb = reverseInto(b.revHb, hbRev)
	hb := b.revHb
	H := b.fwd.hidden
	out := b.outBuf.Get(len(xs), 2*H)
	for t := range xs {
		copy(out[t][:H], hf[t])
		copy(out[t][H:], hb[t])
	}
	return out, nil
}

// Backward splits upstream gradients between the two directions and merges
// the resulting input gradients.
func (b *BiLSTM) Backward(douts [][]float64) ([][]float64, error) {
	H := b.fwd.hidden
	T := len(douts)
	dhf := b.dhfBuf.Get(T, H)
	dhbRev := b.dhbBuf.Get(T, H)
	for t, d := range douts {
		if len(d) != 2*H {
			return nil, fmt.Errorf("nn: bilstm upstream grad %d has size %d, want %d", t, len(d), 2*H)
		}
		copy(dhf[t], d[:H])
		copy(dhbRev[T-1-t], d[H:])
	}
	dxf, err := b.fwd.Backward(dhf)
	if err != nil {
		return nil, err
	}
	dxbRev, err := b.bwd.Backward(dhbRev)
	if err != nil {
		return nil, err
	}
	b.revDx = reverseInto(b.revDx, dxbRev)
	dxb := b.revDx
	out := b.dxBuf.Get(T, b.fwd.in)
	for t := range out {
		v := out[t]
		for i := range v {
			v[i] = dxf[t][i] + dxb[t][i]
		}
	}
	return out, nil
}

// reverseInto fills dst with xs's rows in reverse order, reusing dst's
// storage (row headers only — the vectors themselves are shared).
func reverseInto(dst [][]float64, xs [][]float64) [][]float64 {
	if cap(dst) < len(xs) {
		dst = make([][]float64, len(xs))
	}
	dst = dst[:len(xs)]
	for i, x := range xs {
		dst[len(xs)-1-i] = x
	}
	return dst
}

var (
	_ Module = (*Dense)(nil)
	_ Module = (*LSTM)(nil)
	_ Module = (*BiLSTM)(nil)
)
