package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// seqLoss runs a module's forward over xs and returns 0.5*sum(y^2), whose
// upstream gradient is simply y. Used by the finite-difference checks.
type seqModule interface {
	Module
	Forward([][]float64) ([][]float64, error)
	Backward([][]float64) ([][]float64, error)
}

func quadLoss(t *testing.T, m seqModule, xs [][]float64) float64 {
	t.Helper()
	ys, err := m.Forward(xs)
	if err != nil {
		t.Fatal(err)
	}
	loss := 0.0
	for _, y := range ys {
		for _, v := range y {
			loss += 0.5 * v * v
		}
	}
	return loss
}

// checkGradients compares analytic parameter and input gradients of m against
// central finite differences on the quadratic loss.
func checkGradients(t *testing.T, m seqModule, xs [][]float64, tol float64) {
	t.Helper()
	ys, err := m.Forward(xs)
	if err != nil {
		t.Fatal(err)
	}
	dys := make([][]float64, len(ys))
	for i, y := range ys {
		dys[i] = append([]float64(nil), y...)
	}
	ZeroGrads(m)
	dxs, err := m.Backward(dys)
	if err != nil {
		t.Fatal(err)
	}

	const h = 1e-5
	// Parameter gradients.
	for _, p := range m.Params() {
		for i := 0; i < len(p.W); i += 1 + len(p.W)/40 { // sample entries
			orig := p.W[i]
			p.W[i] = orig + h
			lp := quadLoss(t, m, xs)
			p.W[i] = orig - h
			lm := quadLoss(t, m, xs)
			p.W[i] = orig
			want := (lp - lm) / (2 * h)
			if math.Abs(want-p.G[i]) > tol*(1+math.Abs(want)) {
				t.Errorf("%s[%d]: analytic %v vs numeric %v", p.Name, i, p.G[i], want)
			}
		}
	}
	// Input gradients.
	for ti := range xs {
		for i := range xs[ti] {
			orig := xs[ti][i]
			xs[ti][i] = orig + h
			lp := quadLoss(t, m, xs)
			xs[ti][i] = orig - h
			lm := quadLoss(t, m, xs)
			xs[ti][i] = orig
			want := (lp - lm) / (2 * h)
			if math.Abs(want-dxs[ti][i]) > tol*(1+math.Abs(want)) {
				t.Errorf("dx[%d][%d]: analytic %v vs numeric %v", ti, i, dxs[ti][i], want)
			}
		}
	}
	// Restore caches to the original input (quadLoss perturbed them).
	if _, err := m.Forward(xs); err != nil {
		t.Fatal(err)
	}
}

func randSeq(rng *rand.Rand, steps, dim int) [][]float64 {
	xs := make([][]float64, steps)
	for t := range xs {
		xs[t] = make([]float64, dim)
		for i := range xs[t] {
			xs[t][i] = rng.NormFloat64()
		}
	}
	return xs
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(4, 3, rng)
	checkGradients(t, d, randSeq(rng, 5, 4), 1e-4)
}

func TestLSTMGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLSTM(3, 4, rng)
	checkGradients(t, l, randSeq(rng, 6, 3), 1e-3)
}

func TestBiLSTMGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewBiLSTM(3, 3, rng)
	checkGradients(t, b, randSeq(rng, 5, 3), 1e-3)
}

func TestDenseForwardKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := NewDense(2, 1, rng)
	copy(d.w.W, []float64{2, -1})
	d.b.W[0] = 0.5
	ys, err := d.Forward([][]float64{{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if got := ys[0][0]; math.Abs(got-(2*3-4+0.5)) > 1e-12 {
		t.Errorf("dense output = %v, want 2.5", got)
	}
}

func TestDenseShapeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDense(2, 2, rng)
	if _, err := d.Forward([][]float64{{1, 2, 3}}); err == nil {
		t.Error("wrong input width accepted")
	}
	if _, err := d.Forward([][]float64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Backward([][]float64{{1, 2}, {3, 4}}); err == nil {
		t.Error("mismatched backward length accepted")
	}
	if _, err := d.Backward([][]float64{{1}}); err == nil {
		t.Error("wrong grad width accepted")
	}
}

func TestLSTMShapeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewLSTM(2, 3, rng)
	if _, err := l.Forward([][]float64{{1}}); err == nil {
		t.Error("wrong input width accepted")
	}
	if _, err := l.Forward([][]float64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Backward([][]float64{{1, 2, 3}, {1, 2, 3}}); err == nil {
		t.Error("mismatched backward length accepted")
	}
	if _, err := l.Backward([][]float64{{1}}); err == nil {
		t.Error("wrong grad width accepted")
	}
}

func TestLSTMStatePropagates(t *testing.T) {
	// With a constant input, hidden states must differ across early steps
	// (state is carried) and the final state must depend on sequence length.
	rng := rand.New(rand.NewSource(7))
	l := NewLSTM(1, 4, rng)
	xs := [][]float64{{1}, {1}, {1}}
	hs, err := l.Forward(xs)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for j := range hs[0] {
		if math.Abs(hs[0][j]-hs[1][j]) > 1e-9 {
			same = false
		}
	}
	if same {
		t.Error("h1 == h2 on constant input: state not carried")
	}
}

func TestBiLSTMSeesFuture(t *testing.T) {
	// Changing the LAST input must change the FIRST output (backward pass
	// direction); a uni-directional LSTM would not do this.
	rng := rand.New(rand.NewSource(8))
	b := NewBiLSTM(1, 3, rng)
	xs := [][]float64{{0.5}, {0.5}, {0.5}}
	h1, err := b.Forward(xs)
	if err != nil {
		t.Fatal(err)
	}
	first1 := append([]float64(nil), h1[0]...)
	xs2 := [][]float64{{0.5}, {0.5}, {5}}
	h2, err := b.Forward(xs2)
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for j := range first1 {
		if math.Abs(first1[j]-h2[0][j]) > 1e-9 {
			changed = true
		}
	}
	if !changed {
		t.Error("first BiLSTM output insensitive to last input")
	}
	if 2*b.fwd.hidden != 6 {
		t.Errorf("output size = %d, want 6", 2*b.fwd.hidden)
	}
}

func TestSigmoidSoftplusSoftmax(t *testing.T) {
	if math.Abs(Sigmoid(0)-0.5) > 1e-12 {
		t.Error("sigmoid(0) != 0.5")
	}
	if Sigmoid(100) < 0.999 || Sigmoid(-100) > 0.001 {
		t.Error("sigmoid saturation wrong")
	}
	if math.Abs(Softplus(0)-math.Log(2)) > 1e-12 {
		t.Error("softplus(0) != ln 2")
	}
	if math.Abs(Softplus(50)-50) > 1e-9 {
		t.Error("softplus large-x asymptote wrong")
	}
	p := Softmax([]float64{1, 1, 1})
	for _, v := range p {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Errorf("uniform softmax = %v", p)
		}
	}
	p = Softmax([]float64{1000, 0}) // stability
	if math.IsNaN(p[0]) || p[0] < 0.999 {
		t.Errorf("softmax overflow: %v", p)
	}
}

func TestMSELoss(t *testing.T) {
	loss, grads, err := MSELoss([][]float64{{2, 4}}, [][]float64{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	// ((1)^2 + (2)^2)/2 = 2.5; grads 2*(d)/n = [1, 2].
	if math.Abs(loss-2.5) > 1e-12 {
		t.Errorf("loss = %v, want 2.5", loss)
	}
	if math.Abs(grads[0][0]-1) > 1e-12 || math.Abs(grads[0][1]-2) > 1e-12 {
		t.Errorf("grads = %v, want [1 2]", grads[0])
	}
	if _, _, err := MSELoss([][]float64{{1}}, [][]float64{{1}, {2}}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, err := MSELoss([][]float64{{1, 2}}, [][]float64{{1}}); err == nil {
		t.Error("width mismatch accepted")
	}
	if _, _, err := MSELoss(nil, nil); err == nil {
		t.Error("empty sequences accepted")
	}
}

func TestBCEWithLogits(t *testing.T) {
	loss, grad := BCEWithLogits(0, 1)
	if math.Abs(loss-math.Log(2)) > 1e-12 {
		t.Errorf("BCE(0,1) = %v, want ln 2", loss)
	}
	if math.Abs(grad-(-0.5)) > 1e-12 {
		t.Errorf("grad = %v, want -0.5", grad)
	}
	// Stability at extreme logits.
	loss, _ = BCEWithLogits(1000, 1)
	if math.IsNaN(loss) || loss > 1e-6 {
		t.Errorf("BCE(1000,1) = %v, want ~0", loss)
	}
	loss, _ = BCEWithLogits(-1000, 0)
	if math.IsNaN(loss) || loss > 1e-6 {
		t.Errorf("BCE(-1000,0) = %v, want ~0", loss)
	}
	// Gradient check.
	const h = 1e-6
	for _, x := range []float64{-2, 0.5, 3} {
		for _, y := range []float64{0, 1} {
			lp, _ := BCEWithLogits(x+h, y)
			lm, _ := BCEWithLogits(x-h, y)
			want := (lp - lm) / (2 * h)
			_, got := BCEWithLogits(x, y)
			if math.Abs(got-want) > 1e-5 {
				t.Errorf("BCE grad at (%v,%v): %v vs %v", x, y, got, want)
			}
		}
	}
}

func TestCrossEntropyWithLogits(t *testing.T) {
	loss, grad, err := CrossEntropyWithLogits([]float64{0, 0}, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-math.Log(2)) > 1e-9 {
		t.Errorf("CE = %v, want ln 2", loss)
	}
	if math.Abs(grad[0]-(-0.5)) > 1e-9 || math.Abs(grad[1]-0.5) > 1e-9 {
		t.Errorf("grad = %v, want [-0.5 0.5]", grad)
	}
	if _, _, err := CrossEntropyWithLogits([]float64{1}, []float64{1, 0}); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, _, err := CrossEntropyWithLogits(nil, nil); err == nil {
		t.Error("empty accepted")
	}
	// Numerical gradient check.
	logits := []float64{0.3, -1.2, 2.0}
	target := []float64{0, 1, 0}
	_, g, err := CrossEntropyWithLogits(logits, target)
	if err != nil {
		t.Fatal(err)
	}
	const h = 1e-6
	for i := range logits {
		orig := logits[i]
		logits[i] = orig + h
		lp, _, _ := CrossEntropyWithLogits(logits, target)
		logits[i] = orig - h
		lm, _, _ := CrossEntropyWithLogits(logits, target)
		logits[i] = orig
		want := (lp - lm) / (2 * h)
		if math.Abs(g[i]-want) > 1e-5 {
			t.Errorf("CE grad[%d]: %v vs %v", i, g[i], want)
		}
	}
}

func TestSGDReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := NewDense(2, 1, rng)
	xs := [][]float64{{1, 0}, {0, 1}, {1, 1}}
	target := [][]float64{{2}, {-1}, {1}}
	opt := &SGD{LR: 0.1}
	var first, last float64
	for it := 0; it < 600; it++ {
		ys, err := d.Forward(xs)
		if err != nil {
			t.Fatal(err)
		}
		loss, grads, err := MSELoss(ys, target)
		if err != nil {
			t.Fatal(err)
		}
		if it == 0 {
			first = loss
		}
		last = loss
		if _, err := d.Backward(grads); err != nil {
			t.Fatal(err)
		}
		if err := opt.Step(d); err != nil {
			t.Fatal(err)
		}
	}
	if last > 1e-3 || last >= first {
		t.Errorf("SGD did not converge: first %v, last %v", first, last)
	}
}

func TestAdamLearnsSequencePattern(t *testing.T) {
	// Learn y_t = x_{t-1} (one-step memory) with a small LSTM: the loss must
	// drop well below the no-memory floor.
	rng := rand.New(rand.NewSource(10))
	lstm := NewLSTM(1, 8, rng)
	head := NewDense(8, 1, rng)
	opt := &Adam{LR: 0.01, Clip: 5}
	var first, last float64
	for it := 0; it < 300; it++ {
		xs := randSeq(rng, 8, 1)
		target := make([][]float64, len(xs))
		target[0] = []float64{0}
		for t2 := 1; t2 < len(xs); t2++ {
			target[t2] = []float64{xs[t2-1][0]}
		}
		hs, err := lstm.Forward(xs)
		if err != nil {
			t.Fatal(err)
		}
		ys, err := head.Forward(hs)
		if err != nil {
			t.Fatal(err)
		}
		loss, grads, err := MSELoss(ys, target)
		if err != nil {
			t.Fatal(err)
		}
		if it == 0 {
			first = loss
		}
		last = loss
		dhs, err := head.Backward(grads)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lstm.Backward(dhs); err != nil {
			t.Fatal(err)
		}
		if err := opt.Step(lstm, head); err != nil {
			t.Fatal(err)
		}
	}
	if last > first*0.5 {
		t.Errorf("Adam/LSTM failed to learn memory task: first %v, last %v", first, last)
	}
}

func TestOptimizerValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := NewDense(1, 1, rng)
	if err := (&SGD{LR: 0}).Step(d); err == nil {
		t.Error("SGD zero LR accepted")
	}
	if err := (&Adam{LR: -1}).Step(d); err == nil {
		t.Error("Adam negative LR accepted")
	}
}

func TestGradientClipping(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d := NewDense(1, 1, rng)
	d.w.G[0] = 100
	d.b.G[0] = 0
	w0 := d.w.W[0]
	if err := (&SGD{LR: 1, Clip: 1}).Step(d); err != nil {
		t.Fatal(err)
	}
	// Norm 100 clipped to 1: step of exactly LR*1.
	if got := math.Abs(d.w.W[0] - w0); math.Abs(got-1) > 1e-9 {
		t.Errorf("clipped step = %v, want 1", got)
	}
}

func TestZeroGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d := NewDense(2, 2, rng)
	for i := range d.w.G {
		d.w.G[i] = 5
	}
	ZeroGrads(d)
	for i, g := range d.w.G {
		if g != 0 {
			t.Fatalf("grad %d = %v after ZeroGrads", i, g)
		}
	}
}

// TestPropertySoftmaxIsDistribution checks softmax output sums to 1 and is
// positive for arbitrary finite inputs.
func TestPropertySoftmaxIsDistribution(t *testing.T) {
	f := func(a, b, c float64) bool {
		for _, v := range []float64{a, b, c} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true // skip non-finite draws
			}
		}
		// Clamp magnitudes to keep the test meaningful.
		clamp := func(v float64) float64 { return math.Mod(v, 1e3) }
		p := Softmax([]float64{clamp(a), clamp(b), clamp(c)})
		sum := 0.0
		for _, v := range p {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyBCEConsistent checks loss is non-negative and gradient sign
// points away from the label.
func TestPropertyBCEConsistent(t *testing.T) {
	f := func(logit float64, label bool) bool {
		if math.IsNaN(logit) || math.IsInf(logit, 0) {
			return true
		}
		logit = math.Mod(logit, 50)
		y := 0.0
		if label {
			y = 1
		}
		loss, grad := BCEWithLogits(logit, y)
		if loss < -1e-12 || math.IsNaN(loss) {
			return false
		}
		// grad = sigmoid(x) - y in (-1, 1).
		return grad > -1-1e-9 && grad < 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLSTMForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	l := NewLSTM(8, 16, rng)
	xs := randSeq(rng, 20, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hs, err := l.Forward(xs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := l.Backward(hs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGRUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := NewGRU(3, 4, rng)
	checkGradients(t, g, randSeq(rng, 6, 3), 1e-3)
}

func TestGRUShapeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g := NewGRU(2, 3, rng)
	if _, err := g.Forward([][]float64{{1}}); err == nil {
		t.Error("wrong input width accepted")
	}
	if _, err := g.Forward([][]float64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Backward([][]float64{{1, 2, 3}, {1, 2, 3}}); err == nil {
		t.Error("mismatched backward length accepted")
	}
	if _, err := g.Backward([][]float64{{1}}); err == nil {
		t.Error("wrong grad width accepted")
	}
	if g.hidden != 3 {
		t.Errorf("hidden size = %d", g.hidden)
	}
}

func TestGRULearnsMemoryTask(t *testing.T) {
	// Same one-step-memory task as the LSTM test: loss must halve.
	rng := rand.New(rand.NewSource(23))
	gru := NewGRU(1, 8, rng)
	head := NewDense(8, 1, rng)
	opt := &Adam{LR: 0.01, Clip: 5}
	var first, last float64
	for it := 0; it < 300; it++ {
		xs := randSeq(rng, 8, 1)
		target := make([][]float64, len(xs))
		target[0] = []float64{0}
		for t2 := 1; t2 < len(xs); t2++ {
			target[t2] = []float64{xs[t2-1][0]}
		}
		hs, err := gru.Forward(xs)
		if err != nil {
			t.Fatal(err)
		}
		ys, err := head.Forward(hs)
		if err != nil {
			t.Fatal(err)
		}
		loss, grads, err := MSELoss(ys, target)
		if err != nil {
			t.Fatal(err)
		}
		if it == 0 {
			first = loss
		}
		last = loss
		dhs, err := head.Backward(grads)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gru.Backward(dhs); err != nil {
			t.Fatal(err)
		}
		if err := opt.Step(gru, head); err != nil {
			t.Fatal(err)
		}
	}
	if last > first*0.5 {
		t.Errorf("GRU failed memory task: first %v, last %v", first, last)
	}
}

// MSELoss returns the mean-squared error between prediction and target
// sequences plus the gradient with respect to the predictions.
func MSELoss(pred, target [][]float64) (float64, [][]float64, error) {
	if len(pred) != len(target) {
		return 0, nil, fmt.Errorf("nn: MSE got %d predictions for %d targets", len(pred), len(target))
	}
	n := 0
	loss := 0.0
	grads := make([][]float64, len(pred))
	for t := range pred {
		if len(pred[t]) != len(target[t]) {
			return 0, nil, fmt.Errorf("nn: MSE step %d size mismatch (%d vs %d)", t, len(pred[t]), len(target[t]))
		}
		grads[t] = make([]float64, len(pred[t]))
		for i := range pred[t] {
			d := pred[t][i] - target[t][i]
			loss += d * d
			grads[t][i] = d
			n++
		}
	}
	if n == 0 {
		return 0, nil, fmt.Errorf("nn: MSE over empty sequences")
	}
	inv := 1.0 / float64(n)
	for t := range grads {
		for i := range grads[t] {
			grads[t][i] *= 2 * inv
		}
	}
	return loss * inv, grads, nil
}
