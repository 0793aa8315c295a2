package forecast

import (
	"fmt"
	"math"
	"testing"

	"smiless/internal/mathx"
)

// This file keeps the straightforward kernel the package shipped before the
// taped one — one cache struct and seven slices allocated per step, one
// gate row per add chain, three k loops per gate in BPTT — as the oracle
// the production kernel must match bit for bit. It shares parameter storage
// (W, B, dW, dB) with the production types and nothing else.

// refCache stores the per-step activations needed by BPTT.
type refCache struct {
	x          []float64 // input at this step
	hPrev      []float64
	cPrev      []float64
	i, f, g, o []float64 // gate activations
	c, h       []float64 // new cell and hidden state
}

// refStep runs one LSTM step and returns the cache.
func refStep(l *LSTM, x, hPrev, cPrev []float64) *refCache {
	h := l.Hidden
	cache := &refCache{
		x: append([]float64(nil), x...), hPrev: hPrev, cPrev: cPrev,
		i: make([]float64, h), f: make([]float64, h), g: make([]float64, h), o: make([]float64, h),
		c: make([]float64, h), h: make([]float64, h),
	}
	width := l.In + h
	for gate := 0; gate < 4; gate++ {
		for j := 0; j < h; j++ {
			row := (gate*h + j) * width
			s := l.B[gate*h+j]
			for k := 0; k < l.In; k++ {
				s += l.W[row+k] * x[k]
			}
			for k := 0; k < h; k++ {
				s += l.W[row+l.In+k] * hPrev[k]
			}
			switch gate {
			case 0:
				cache.i[j] = sigmoid(s)
			case 1:
				cache.f[j] = sigmoid(s)
			case 2:
				cache.g[j] = math.Tanh(s)
			case 3:
				cache.o[j] = sigmoid(s)
			}
		}
	}
	for j := 0; j < h; j++ {
		cache.c[j] = cache.f[j]*cPrev[j] + cache.i[j]*cache.g[j]
		cache.h[j] = cache.o[j] * math.Tanh(cache.c[j])
	}
	return cache
}

// refForward runs the LSTM over a sequence of input vectors starting from
// zero state and returns the final hidden state plus the caches for BPTT.
func refForward(l *LSTM, xs [][]float64) ([]float64, []*refCache) {
	h := make([]float64, l.Hidden)
	c := make([]float64, l.Hidden)
	caches := make([]*refCache, len(xs))
	for t, x := range xs {
		cache := refStep(l, x, h, c)
		caches[t] = cache
		h, c = cache.h, cache.c
	}
	return h, caches
}

// refBackward runs BPTT given dH, the loss gradient w.r.t. the final hidden
// state, accumulating parameter gradients into dW/dB.
func refBackward(l *LSTM, caches []*refCache, dH []float64) {
	h := l.Hidden
	width := l.In + h
	dh := append([]float64(nil), dH...)
	dc := make([]float64, h)
	for t := len(caches) - 1; t >= 0; t-- {
		cc := caches[t]
		dhNext := make([]float64, h)
		dcNext := make([]float64, h)
		for j := 0; j < h; j++ {
			tc := math.Tanh(cc.c[j])
			do := dh[j] * tc
			dcj := dc[j] + dh[j]*cc.o[j]*(1-tc*tc)
			di := dcj * cc.g[j]
			dg := dcj * cc.i[j]
			df := dcj * cc.cPrev[j]
			dcNext[j] = dcj * cc.f[j]

			// Pre-activation gradients.
			zi := di * cc.i[j] * (1 - cc.i[j])
			zf := df * cc.f[j] * (1 - cc.f[j])
			zg := dg * (1 - cc.g[j]*cc.g[j])
			zo := do * cc.o[j] * (1 - cc.o[j])
			for gate, z := range [4]float64{zi, zf, zg, zo} {
				row := (gate*h + j) * width
				l.dB[gate*h+j] += z
				for k := 0; k < l.In; k++ {
					l.dW[row+k] += z * cc.x[k]
				}
				for k := 0; k < h; k++ {
					l.dW[row+l.In+k] += z * cc.hPrev[k]
				}
				for k := 0; k < h; k++ {
					dhNext[k] += l.W[row+l.In+k] * z
				}
			}
		}
		dh = dhNext
		dc = dcNext
	}
}

func refDenseForward(d *Dense, x []float64) []float64 {
	y := make([]float64, d.Out)
	for o := 0; o < d.Out; o++ {
		s := d.B[o]
		for i := 0; i < d.In; i++ {
			s += d.W[o*d.In+i] * x[i]
		}
		y[o] = s
	}
	return y
}

func refDenseBackward(d *Dense, x, dY []float64) []float64 {
	dx := make([]float64, d.In)
	for o := 0; o < d.Out; o++ {
		d.dB[o] += dY[o]
		for i := 0; i < d.In; i++ {
			d.dW[o*d.In+i] += dY[o] * x[i]
			dx[i] += d.W[o*d.In+i] * dY[o]
		}
	}
	return dx
}

func refSoftmax(logits []float64) []float64 {
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	out := make([]float64, len(logits))
	sum := 0.0
	for i, v := range logits {
		out[i] = math.Exp(v - max)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// refAdam is the optimizer with every per-element slice lookup in place.
type refAdam struct {
	lr, beta1, beta2, eps float64
	t                     int
	m, v                  [][]float64
	params, grads         [][]float64
}

func newRefAdam(lr float64, params, grads [][]float64) *refAdam {
	a := &refAdam{lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, params: params, grads: grads}
	for _, p := range params {
		a.m = append(a.m, make([]float64, len(p)))
		a.v = append(a.v, make([]float64, len(p)))
	}
	return a
}

func (a *refAdam) step(clip float64) {
	a.t++
	if clip > 0 {
		norm := 0.0
		for _, g := range a.grads {
			for _, x := range g {
				norm += x * x
			}
		}
		norm = math.Sqrt(norm)
		if norm > clip {
			s := clip / norm
			for _, g := range a.grads {
				for i := range g {
					g[i] *= s
				}
			}
		}
	}
	b1c := 1 - math.Pow(a.beta1, float64(a.t))
	b2c := 1 - math.Pow(a.beta2, float64(a.t))
	for pi, p := range a.params {
		g := a.grads[pi]
		for i := range p {
			a.m[pi][i] = a.beta1*a.m[pi][i] + (1-a.beta1)*g[i]
			a.v[pi][i] = a.beta2*a.v[pi][i] + (1-a.beta2)*g[i]*g[i]
			mh := a.m[pi][i] / b1c
			vh := a.v[pi][i] / b2c
			p[i] -= a.lr * mh / (math.Sqrt(vh) + a.eps)
		}
	}
}

// refWindow builds the normalized trailing window of one series, one
// one-element vector per step.
func refWindow(series []float64, seqLen int, norm float64) [][]float64 {
	xs := make([][]float64, seqLen)
	for i := 0; i < seqLen; i++ {
		idx := len(series) - seqLen + i
		v := 0.0
		if idx >= 0 {
			v = series[idx]
		}
		xs[i] = []float64{v / norm}
	}
	return xs
}

// refInvocation is InvocationPredictor's Fit and Predict on the reference
// kernel, reading the hyperparameters of the predictor it mirrors.
type refInvocation struct {
	cfg     *countLSTM
	lstm    *LSTM
	head    *Dense
	classes int
	norm    float64
}

func (p *refInvocation) fit(counts []float64) {
	c := p.cfg
	maxClass := 0
	p.norm = 1
	for _, v := range counts {
		if b := c.bucket(v); b > maxClass {
			maxClass = b
		}
		if v > p.norm {
			p.norm = v
		}
	}
	p.classes = maxClass + 2
	r := mathx.NewRand(c.cfg.Seed)
	p.lstm = NewLSTM(r, 1, c.hidden)
	p.head = NewDense(r, c.hidden, p.classes)
	lp, lg := p.lstm.Params()
	dp, dg := p.head.Params()
	opt := newRefAdam(0.005, append(lp, dp...), append(lg, dg...))
	for epoch := 0; epoch < c.epochs; epoch++ {
		for i := c.seqLen; i < len(counts); i++ {
			target := c.bucket(counts[i])
			if target >= p.classes {
				target = p.classes - 1
			}
			p.lstm.ZeroGrad()
			p.head.ZeroGrad()
			h, caches := refForward(p.lstm, refWindow(counts[:i], c.seqLen, p.norm))
			dLogits := refSoftmax(refDenseForward(p.head, h))
			dLogits[target] -= 1
			refBackward(p.lstm, caches, refDenseBackward(p.head, h, dLogits))
			opt.step(5)
		}
	}
}

func (p *refInvocation) predict(history []float64) float64 {
	c := p.cfg
	h, _ := refForward(p.lstm, refWindow(history, c.seqLen, p.norm))
	probs := refSoftmax(refDenseForward(p.head, h))
	cum := 0.0
	best := len(probs) - 1
	for i, v := range probs {
		cum += v
		if cum >= countQuantile {
			best = i
			break
		}
	}
	return math.Ceil(c.upper(best) * (1 + countCompensation))
}

// refIAT is InterArrivalPredictor's FitIAT and PredictIAT on the reference
// kernel.
type refIAT struct {
	cfg                *iatLSTM
	lstmIAT, lstmCount *LSTM
	merge, head        *Dense
	iatNorm, countNorm float64
}

type refIATForward struct {
	hIAT                 []float64
	cachesIAT, cachesCnt []*refCache
	merged, actOut       []float64
	y                    float64
}

func (p *refIAT) forward(iats, counts []float64) *refIATForward {
	c := p.cfg
	f := &refIATForward{}
	f.hIAT, f.cachesIAT = refForward(p.lstmIAT, refWindow(iats, c.seqLen, p.iatNorm))
	f.merged = f.hIAT
	if c.dualInput {
		var hCnt []float64
		hCnt, f.cachesCnt = refForward(p.lstmCount, refWindow(counts, c.seqLen, p.countNorm))
		f.merged = append(append([]float64(nil), f.hIAT...), hCnt...)
	}
	pre := refDenseForward(p.merge, f.merged)
	f.actOut = make([]float64, len(pre))
	for i, v := range pre {
		f.actOut[i] = math.Tanh(v)
	}
	f.y = refDenseForward(p.head, f.actOut)[0]
	return f
}

func (p *refIAT) fit(iats, counts []float64) {
	c := p.cfg
	p.iatNorm = math.Max(mathx.Max(iats), 1e-9)
	p.countNorm = math.Max(mathx.Max(counts), 1)
	r := mathx.NewRand(c.cfg.Seed)
	p.lstmIAT = NewLSTM(r, 1, c.hidden)
	params, grads := p.lstmIAT.Params()
	add := func(ps, gs [][]float64) { params, grads = append(params, ps...), append(grads, gs...) }
	mergeIn := c.hidden
	if c.dualInput {
		p.lstmCount = NewLSTM(r, 1, c.hidden)
		add(p.lstmCount.Params())
		mergeIn = 2 * c.hidden
	}
	p.merge = NewDense(r, mergeIn, c.hidden)
	p.head = NewDense(r, c.hidden, 1)
	add(p.merge.Params())
	add(p.head.Params())
	opt := newRefAdam(0.005, params, grads)
	for epoch := 0; epoch < c.epochs; epoch++ {
		for i := c.seqLen; i < len(iats); i++ {
			target := iats[i] / p.iatNorm
			for _, g := range grads {
				clear(g)
			}
			f := p.forward(iats[:i], counts[:i])
			diff := f.y - target
			w := 1.0
			if diff > 0 && iatOverPenalty > 1 {
				w = iatOverPenalty
			}
			dAct := refDenseBackward(p.head, f.actOut, []float64{w * diff})
			dPre := make([]float64, len(dAct))
			for i := range dAct {
				dPre[i] = dAct[i] * (1 - f.actOut[i]*f.actOut[i])
			}
			dMerged := refDenseBackward(p.merge, f.merged, dPre)
			refBackward(p.lstmIAT, f.cachesIAT, dMerged[:c.hidden])
			if c.dualInput {
				refBackward(p.lstmCount, f.cachesCnt, dMerged[c.hidden:])
			}
			opt.step(5)
		}
	}
}

func (p *refIAT) predict(iats, counts []float64) float64 {
	v := p.forward(iats, counts).y * p.iatNorm
	if v < 0 {
		v = 0
	}
	return v
}

// sameBits fails the test unless got and want agree element by element in
// every bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkLSTMMatchesReference trains an LSTM + Dense head for three Adam
// steps on the production kernel and on the reference from the same seed
// and demands bit equality at every stage: final hidden state, gradients,
// and parameters after each step.
func checkLSTMMatchesReference(t *testing.T, seed int64, in, hidden, steps int) {
	t.Helper()
	build := func() (*LSTM, *Dense) {
		r := mathx.NewRand(seed)
		return NewLSTM(r, in, hidden), NewDense(r, hidden, 2)
	}
	l, d := build()
	rl, rd := build()
	lp, lg := l.Params()
	dp, dg := d.Params()
	opt := NewAdam(0.01, append(lp, dp...), append(lg, dg...))
	lp, lg = rl.Params()
	dp, dg = rd.Params()
	ropt := newRefAdam(0.01, append(lp, dp...), append(lg, dg...))

	r := mathx.NewRand(seed ^ 0x5eed)
	flat := make([]float64, steps*in)
	nested := make([][]float64, steps)
	for step := 0; step < 3; step++ {
		for i := range flat {
			flat[i] = r.NormFloat64()
		}
		for s := range nested {
			nested[s] = flat[s*in : (s+1)*in]
		}
		dY := []float64{r.NormFloat64(), r.NormFloat64()}

		l.ZeroGrad()
		d.ZeroGrad()
		h := l.Forward(flat)
		rl.ZeroGrad()
		rd.ZeroGrad()
		rh, caches := refForward(rl, nested)
		sameBits(t, "h", h, rh)
		sameBits(t, "dense y", d.Forward(h), refDenseForward(rd, rh))

		dH := d.Backward(h, dY)
		rdH := refDenseBackward(rd, rh, dY)
		sameBits(t, "dH", dH, rdH)
		l.Backward(dH)
		refBackward(rl, caches, rdH)
		sameBits(t, "dW", l.dW, rl.dW)
		sameBits(t, "dB", l.dB, rl.dB)
		sameBits(t, "dense dW", d.dW, rd.dW)

		// A small clip makes some steps take the rescaling branch.
		opt.Step(0.5)
		ropt.step(0.5)
		sameBits(t, "W", l.W, rl.W)
		sameBits(t, "B", l.B, rl.B)
		sameBits(t, "dense W", d.W, rd.W)
		sameBits(t, "dense B", d.B, rd.B)
	}
}

func TestLSTMMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		for in := 1; in <= 3; in++ {
			for hidden := 1; hidden <= 9; hidden++ {
				for steps := 0; steps <= 6; steps++ {
					checkLSTMMatchesReference(t, seed, in, hidden, steps)
				}
			}
		}
	}
	// The shapes the predictors ship with.
	checkLSTMMatchesReference(t, 3, 1, 30, 24)
	checkLSTMMatchesReference(t, 3, 1, 24, 16)
}

func FuzzLSTMMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(1), uint8(0))
	f.Add(int64(2), uint8(1), uint8(9), uint8(6))
	f.Add(int64(3), uint8(3), uint8(4), uint8(1))
	f.Add(int64(-4), uint8(2), uint8(7), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, in, hidden, steps uint8) {
		checkLSTMMatchesReference(t, seed, 1+int(in)%3, 1+int(hidden)%9, int(steps)%7)
	})
}

// refSeries is a deterministic bursty count series with an aligned gap
// series, short enough that a differential fit takes milliseconds.
func refSeries(n int) (counts, iats []float64) {
	counts = make([]float64, n)
	iats = make([]float64, n)
	for i := range counts {
		counts[i] = math.Floor(4 + 3*math.Sin(float64(i)/5) + float64(i*7%4))
		iats[i] = 0.2 + 1/(1+counts[i]) + 0.05*float64(i%3)
	}
	return counts, iats
}

func TestInvocationPredictorMatchesReference(t *testing.T) {
	counts, _ := refSeries(60)
	for _, seed := range []int64{1, 9} {
		p := newCount(2, seed)
		p.seqLen, p.hidden, p.epochs = 6, 5, 2
		p.fit(counts)
		ref := &refInvocation{cfg: p}
		ref.fit(counts)
		sameBits(t, "lstm.W", p.lstm.W, ref.lstm.W)
		sameBits(t, "lstm.B", p.lstm.B, ref.lstm.B)
		sameBits(t, "head.W", p.head.W, ref.head.W)
		sameBits(t, "head.B", p.head.B, ref.head.B)
		// Histories shorter than, equal to and longer than SeqLen.
		for _, n := range []int{0, 3, 6, 40, 60} {
			sameBits(t, fmt.Sprintf("Predict(%d windows)", n),
				[]float64{p.forecast(counts[:n])}, []float64{ref.predict(counts[:n])})
		}
	}
}

func TestInterArrivalPredictorMatchesReference(t *testing.T) {
	counts, iats := refSeries(50)
	for _, dual := range []bool{true, false} {
		p := newIATLSTM(Config{Seed: 5}, true)
		p.seqLen, p.hidden, p.epochs, p.dualInput = 5, 4, 2, dual
		p.fit(iats, counts)
		ref := &refIAT{cfg: p}
		ref.fit(iats, counts)
		sameBits(t, "lstmIAT.W", p.lstmIAT.W, ref.lstmIAT.W)
		sameBits(t, "lstmIAT.B", p.lstmIAT.B, ref.lstmIAT.B)
		if dual {
			sameBits(t, "lstmCount.W", p.lstmCount.W, ref.lstmCount.W)
			sameBits(t, "lstmCount.B", p.lstmCount.B, ref.lstmCount.B)
		}
		sameBits(t, "merge.W", p.merge.W, ref.merge.W)
		sameBits(t, "merge.B", p.merge.B, ref.merge.B)
		sameBits(t, "head.W", p.head.W, ref.head.W)
		sameBits(t, "head.B", p.head.B, ref.head.B)
		for _, n := range []int{2, 5, 30, 50} {
			sameBits(t, fmt.Sprintf("PredictIAT(%d gaps, dual=%v)", n, dual),
				[]float64{p.forecast(iats[:n], counts[:n])}, []float64{ref.predict(iats[:n], counts[:n])})
		}
	}
}
