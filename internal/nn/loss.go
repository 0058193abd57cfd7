package nn

import (
	"fmt"
	"math"
)

// BCEWithLogits returns the binary cross-entropy of a single logit against a
// {0,1} label, and d(loss)/d(logit). Numerically stable for large |logit|.
func BCEWithLogits(logit, label float64) (loss, grad float64) {
	// loss = max(x,0) - x*y + log(1+exp(-|x|))
	loss = math.Max(logit, 0) - logit*label + math.Log1p(math.Exp(-math.Abs(logit)))
	grad = Sigmoid(logit) - label
	return loss, grad
}

// CrossEntropyWithLogits returns the softmax cross-entropy of logits against
// a one-hot (or soft) target distribution, plus d(loss)/d(logits).
func CrossEntropyWithLogits(logits, target []float64) (float64, []float64, error) {
	if len(logits) != len(target) {
		return 0, nil, fmt.Errorf("nn: CE got %d logits for %d targets", len(logits), len(target))
	}
	if len(logits) == 0 {
		return 0, nil, fmt.Errorf("nn: CE over empty vectors")
	}
	p := Softmax(logits)
	loss := 0.0
	grad := make([]float64, len(logits))
	for i := range logits {
		if target[i] > 0 {
			loss -= target[i] * math.Log(p[i]+1e-12)
		}
		grad[i] = p[i] - target[i]
	}
	return loss, grad, nil
}
