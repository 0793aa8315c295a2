package forecast

import (
	"math"
	"testing"

	"smiless/internal/mathx"
)

// seqLoss computes a scalar loss from an LSTM + Dense head over a fixed
// input sequence: L = 0.5 * (y - target)^2 with y the dense output.
func seqLoss(l *LSTM, d *Dense, xs []float64, target float64) float64 {
	h := l.Forward(xs)
	y := d.Forward(h)[0]
	diff := y - target
	return 0.5 * diff * diff
}

// TestLSTMGradientCheck verifies BPTT against numerical gradients — the
// strongest possible correctness test for the from-scratch implementation.
func TestLSTMGradientCheck(t *testing.T) {
	r := mathx.NewRand(42)
	l := NewLSTM(r, 2, 3)
	d := NewDense(r, 3, 1)
	xs := []float64{0.5, -0.3, 0.1, 0.8, -0.6, 0.2} // three steps of width 2
	target := 0.7

	// Analytic gradients.
	l.ZeroGrad()
	d.ZeroGrad()
	h := l.Forward(xs)
	y := d.Forward(h)[0]
	dY := []float64{y - target}
	l.Backward(d.Backward(h, dY))

	const eps = 1e-6
	check := func(name string, params, grads []float64) {
		for i := range params {
			orig := params[i]
			params[i] = orig + eps
			lp := seqLoss(l, d, xs, target)
			params[i] = orig - eps
			lm := seqLoss(l, d, xs, target)
			params[i] = orig
			num := (lp - lm) / (2 * eps)
			if diff := math.Abs(num - grads[i]); diff > 1e-5*(1+math.Abs(num)) {
				t.Errorf("%s[%d]: analytic %v vs numeric %v", name, i, grads[i], num)
			}
		}
	}
	check("lstm.W", l.W, l.dW)
	check("lstm.B", l.B, l.dB)
	check("dense.W", d.W, d.dW)
	check("dense.B", d.B, d.dB)
}

func TestLSTMForwardShapes(t *testing.T) {
	r := mathx.NewRand(1)
	l := NewLSTM(r, 1, 4)
	h := l.Forward([]float64{1, 2, 3})
	if len(h) != 4 || l.steps != 3 {
		t.Errorf("forward shapes: h=%d steps=%d", len(h), l.steps)
	}
	// Hidden state is bounded by tanh × sigmoid.
	for _, v := range h {
		if v < -1 || v > 1 {
			t.Errorf("hidden state %v out of [-1,1]", v)
		}
	}
}

func TestLSTMInputWidthPanics(t *testing.T) {
	r := mathx.NewRand(1)
	l := NewLSTM(r, 2, 3)
	defer func() {
		if recover() == nil {
			t.Error("wrong input width should panic")
		}
	}()
	l.Forward([]float64{1})
}

// TestLSTMEmptySequenceOwnsItsResult pins the T = 0 corner: the zero state
// comes back as the caller's own vector, so writing it cannot poison the
// model's shared initial state for the next sequence.
func TestLSTMEmptySequenceOwnsItsResult(t *testing.T) {
	l := NewLSTM(mathx.NewRand(1), 1, 4)
	want := append([]float64(nil), l.Forward([]float64{0.3, -0.2})...)
	h0 := l.Forward(nil)
	for i := range h0 {
		if h0[i] != 0 { //lint:allow floateq the zero state is exactly zero
			t.Fatalf("empty-sequence state[%d] = %v, want 0", i, h0[i])
		}
		h0[i] = 99
	}
	l.Backward(make([]float64, 4)) // no steps taped: must be a no-op
	sameBits(t, "forward after a scribbled-on empty result", l.Forward([]float64{0.3, -0.2}), want)
}

func TestLSTMLearnsSimplePattern(t *testing.T) {
	// Learn y = last input of the sequence (identity on final element):
	// the LSTM must beat the constant predictor by a wide margin.
	r := mathx.NewRand(7)
	l := NewLSTM(r, 1, 8)
	d := NewDense(r, 8, 1)
	lp, lg := l.Params()
	dp, dg := d.Params()
	opt := NewAdam(0.01, append(lp, dp...), append(lg, dg...))

	xs := make([]float64, 5)
	sample := func() ([]float64, float64) {
		for i := range xs {
			xs[i] = r.Float64()
		}
		return xs, xs[4]
	}
	var loss0, lossN float64
	for epoch := 0; epoch < 600; epoch++ {
		xs, target := sample()
		l.ZeroGrad()
		d.ZeroGrad()
		h := l.Forward(xs)
		y := d.Forward(h)[0]
		loss := 0.5 * (y - target) * (y - target)
		if epoch < 50 {
			loss0 += loss
		}
		if epoch >= 550 {
			lossN += loss
		}
		l.Backward(d.Backward(h, []float64{y - target}))
		opt.Step(5)
	}
	if lossN >= loss0/4 {
		t.Errorf("training did not converge: first-50 loss %v, last-50 loss %v", loss0, lossN)
	}
}

func TestSoftmax(t *testing.T) {
	p := Softmax(make([]float64, 3), []float64{1, 2, 3})
	sum := 0.0
	for _, v := range p {
		if v <= 0 || v >= 1 {
			t.Errorf("probability %v out of (0,1)", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sums to %v", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Errorf("softmax not monotone: %v", p)
	}
	// Numerical stability at large logits.
	p = Softmax(p, []float64{1000, 1001})
	if math.IsNaN(p[0]) || math.IsNaN(p[1]) {
		t.Error("softmax overflow")
	}
}

func TestCrossEntropyGrad(t *testing.T) {
	logits := []float64{0.2, -0.5, 1.0}
	grad := make([]float64, len(logits))
	loss := CrossEntropyGrad(grad, logits, 2)
	if loss <= 0 {
		t.Errorf("loss = %v, want > 0", loss)
	}
	// Gradient must sum to zero (softmax property).
	s := 0.0
	for _, g := range grad {
		s += g
	}
	if math.Abs(s) > 1e-12 {
		t.Errorf("CE gradient sums to %v", s)
	}
	if grad[2] >= 0 {
		t.Error("target-class gradient should be negative")
	}
}

func TestAdamConverges(t *testing.T) {
	// Minimize (x-3)^2 with Adam.
	x := []float64{0}
	g := []float64{0}
	opt := NewAdam(0.1, [][]float64{x}, [][]float64{g})
	for i := 0; i < 500; i++ {
		g[0] = 2 * (x[0] - 3)
		opt.Step(0)
	}
	if math.Abs(x[0]-3) > 0.01 {
		t.Errorf("Adam converged to %v, want 3", x[0])
	}
}

func TestAdamClipping(t *testing.T) {
	x := []float64{0}
	g := []float64{1e9}
	opt := NewAdam(0.1, [][]float64{x}, [][]float64{g})
	opt.Step(1.0)
	if math.Abs(x[0]) > 0.2 {
		t.Errorf("clipped step moved %v, want bounded", x[0])
	}
}

func TestDenseBackwardGradCheck(t *testing.T) {
	r := mathx.NewRand(3)
	d := NewDense(r, 3, 2)
	x := []float64{0.3, -0.7, 0.5}
	// Loss = sum(y).
	d.ZeroGrad()
	dx := d.Backward(x, []float64{1, 1})
	const eps = 1e-6
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		yp := d.Forward(x)
		sp := yp[0] + yp[1]
		x[i] = orig - eps
		ym := d.Forward(x)
		x[i] = orig
		num := (sp - ym[0] - ym[1]) / (2 * eps)
		if math.Abs(num-dx[i]) > 1e-6 {
			t.Errorf("dX[%d]: analytic %v vs numeric %v", i, dx[i], num)
		}
	}
}

// TestTrainingSampleDoesNotAllocate is the allocation contract of the taped
// kernel: once Fit has sized the model's scratch, one training sample —
// forward, backward and the optimizer step — allocates nothing.
func TestTrainingSampleDoesNotAllocate(t *testing.T) {
	counts, iats := refSeries(60)

	inv := newCount(2, 1)
	inv.epochs = 1
	inv.fit(counts)
	if n := testing.AllocsPerRun(20, func() { inv.trainSample(counts, 40) }); n != 0 {
		t.Errorf("InvocationPredictor training sample: %v allocs, want 0", n)
	}

	for _, dual := range []bool{true, false} {
		iat := newIATLSTM(Config{Seed: 1}, true)
		iat.epochs, iat.dualInput = 1, dual
		iat.fit(iats, counts)
		if n := testing.AllocsPerRun(20, func() { iat.trainSample(iats, counts, 40) }); n != 0 {
			t.Errorf("InterArrivalPredictor (dual=%v) training sample: %v allocs, want 0", dual, n)
		}
	}
}
