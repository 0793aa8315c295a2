package forecast

import (
	"fmt"
	"math"
	"math/rand"
)

// LSTM is a single-layer LSTM. Gate weights are packed into one matrix W of
// shape [4H x (I+H)] with gate order (input, forget, cell, output), plus a
// packed bias vector of length 4H. The forget-gate bias is initialized to 1,
// the standard trick for gradient flow on startup.
//
// Forward records every step on one flat tape owned by the model and
// Backward reads it back, so a training sample allocates nothing once the
// tape has reached its sequence length. The price is that an LSTM is
// single-goroutine: Forward and Backward write model-owned scratch, and the
// hidden state Forward returns is a view into the tape, valid until the
// next Forward.
//
// Bit-compatibility rule: every sum below adds its terms in the order the
// reference kernel (lstm_ref_test.go) does — bias, inputs k ascending,
// recurrent k ascending per gate pre-activation; j ascending and gate order
// (i, f, g, o) within j per dhNext[k]. A kernel change may run independent
// sums side by side but must not reorder or re-associate any one of them,
// and writes them as `acc += a * b` so FMA-fusing targets fuse both alike.
type LSTM struct {
	In, Hidden int
	W          []float64 // 4H x (I+H), row-major
	B          []float64 // 4H
	dW, dB     []float64 // gradient accumulators

	// tape holds steps records of tapeStride() floats each, laid out
	// x[In] i[H] f[H] g[H] o[H] c[H] tanh(c)[H] h[H].
	tape  []float64
	steps int
	// zero is the all-zero state before step 0; never written.
	zero []float64
	// BPTT scratch: state gradients flowing into the current step, and the
	// pair being accumulated for the step before it.
	dh, dc, dhNext, dcNext []float64
}

// NewLSTM returns an LSTM with Xavier-style initialization.
func NewLSTM(r *rand.Rand, in, hidden int) *LSTM {
	if in < 1 || hidden < 1 {
		panic(fmt.Sprintf("forecast: bad LSTM shape in=%d hidden=%d", in, hidden))
	}
	l := &LSTM{
		In: in, Hidden: hidden,
		W:      make([]float64, 4*hidden*(in+hidden)),
		B:      make([]float64, 4*hidden),
		dW:     make([]float64, 4*hidden*(in+hidden)),
		dB:     make([]float64, 4*hidden),
		zero:   make([]float64, hidden),
		dh:     make([]float64, hidden),
		dc:     make([]float64, hidden),
		dhNext: make([]float64, hidden),
		dcNext: make([]float64, hidden),
	}
	scale := 1.0 / math.Sqrt(float64(in+hidden))
	for i := range l.W {
		l.W[i] = r.NormFloat64() * scale
	}
	for h := 0; h < hidden; h++ {
		l.B[hidden+h] = 1 // forget gate bias
	}
	return l
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func (l *LSTM) tapeStride() int { return l.In + 7*l.Hidden }

// tapeStep is one step's record on the tape, as views.
type tapeStep struct {
	x, i, f, g, o, c, tc, h []float64
}

func (l *LSTM) tapeAt(t int) tapeStep {
	in, h := l.In, l.Hidden
	rec := l.tape[t*l.tapeStride() : (t+1)*l.tapeStride()]
	// block n of the H-long blocks after x, capped so no view can grow
	// into its neighbour.
	block := func(n int) []float64 { return rec[in+n*h : in+(n+1)*h : in+(n+1)*h] }
	return tapeStep{
		x: rec[:in:in],
		i: block(0), f: block(1), g: block(2), o: block(3),
		c: block(4), tc: block(5), h: block(6),
	}
}

// gateRows returns columns [from, from+n) of the four gate rows (input,
// forget, cell, output) of hidden unit j in m, which is W or dW.
func (l *LSTM) gateRows(m []float64, j, from, n int) (ri, rf, rg, ro []float64) {
	at, gate := j*(l.In+l.Hidden)+from, l.Hidden*(l.In+l.Hidden)
	// [at:][:n], not [at:at+n]: the compiler then knows each length is n
	// and drops the bounds checks in the callers' k loops.
	return m[at:][:n], m[at+gate:][:n], m[at+2*gate:][:n], m[at+3*gate:][:n]
}

// Forward runs the LSTM from zero state over a sequence of len(xs)/In input
// vectors laid end to end, taping each step for Backward, and returns the
// final hidden state: a view into the tape that the next Forward
// overwrites (a fresh zero vector for the empty sequence).
func (l *LSTM) Forward(xs []float64) []float64 {
	in, h := l.In, l.Hidden
	if len(xs)%in != 0 {
		panic(fmt.Sprintf("forecast: input length %d is not a multiple of width %d", len(xs), in))
	}
	l.steps = len(xs) / in
	if l.steps == 0 {
		return make([]float64, h)
	}
	if need := l.steps * l.tapeStride(); need > cap(l.tape) {
		l.tape = make([]float64, need)
	} else {
		l.tape = l.tape[:need]
	}
	hPrev, cPrev := l.zero, l.zero
	for t := 0; t < l.steps; t++ {
		s := l.tapeAt(t)
		x := s.x
		copy(x, xs[t*in:])
		for j := 0; j < h; j++ {
			// The four gate rows of unit j in one pass: four independent
			// add chains in flight instead of one.
			wi, wf, wg, wo := l.gateRows(l.W, j, 0, len(x))
			ai, af, ag, ao := l.B[j], l.B[h+j], l.B[2*h+j], l.B[3*h+j]
			for k, xk := range x {
				ai += wi[k] * xk
				af += wf[k] * xk
				ag += wg[k] * xk
				ao += wo[k] * xk
			}
			wi, wf, wg, wo = l.gateRows(l.W, j, in, len(hPrev))
			for k, hk := range hPrev {
				ai += wi[k] * hk
				af += wf[k] * hk
				ag += wg[k] * hk
				ao += wo[k] * hk
			}
			gi, gf, gg, gout := sigmoid(ai), sigmoid(af), math.Tanh(ag), sigmoid(ao)
			c := gf*cPrev[j] + gi*gg
			tc := math.Tanh(c)
			s.i[j], s.f[j], s.g[j], s.o[j] = gi, gf, gg, gout
			s.c[j], s.tc[j] = c, tc
			s.h[j] = gout * tc
		}
		hPrev, cPrev = s.h, s.c
	}
	return hPrev
}

// Backward runs BPTT over the sequence taped by the last Forward given dH,
// the loss gradient w.r.t. its final hidden state, accumulating parameter
// gradients into dW/dB.
func (l *LSTM) Backward(dH []float64) {
	in, h := l.In, l.Hidden
	if len(dH) != h {
		panic(fmt.Sprintf("forecast: hidden-state gradient of length %d, want %d", len(dH), h))
	}
	dh, dc, dhNext, dcNext := l.dh, l.dc, l.dhNext, l.dcNext
	copy(dh, dH)
	clear(dc)
	for t := l.steps - 1; t >= 0; t-- {
		s := l.tapeAt(t)
		hPrev, cPrev := l.zero, l.zero
		if t > 0 {
			prev := l.tapeAt(t - 1)
			hPrev, cPrev = prev.h, prev.c
		}
		x := s.x
		clear(dhNext)
		for j := 0; j < h; j++ {
			tc := s.tc[j]
			do := dh[j] * tc
			dcj := dc[j] + dh[j]*s.o[j]*(1-tc*tc)
			di := dcj * s.g[j]
			dg := dcj * s.i[j]
			df := dcj * cPrev[j]
			dcNext[j] = dcj * s.f[j]

			// Pre-activation gradients.
			zi := di * s.i[j] * (1 - s.i[j])
			zf := df * s.f[j] * (1 - s.f[j])
			zg := dg * (1 - s.g[j]*s.g[j])
			zo := do * s.o[j] * (1 - s.o[j])
			l.dB[j] += zi
			l.dB[h+j] += zf
			l.dB[2*h+j] += zg
			l.dB[3*h+j] += zo

			dwi, dwf, dwg, dwo := l.gateRows(l.dW, j, 0, len(x))
			for k, xk := range x {
				dwi[k] += zi * xk
				dwf[k] += zf * xk
				dwg[k] += zg * xk
				dwo[k] += zo * xk
			}
			dwi, dwf, dwg, dwo = l.gateRows(l.dW, j, in, len(hPrev))
			for k, hk := range hPrev {
				dwi[k] += zi * hk
				dwf[k] += zf * hk
				dwg[k] += zg * hk
				dwo[k] += zo * hk
			}
			// dhNext[k] gathers unit j's four gates in gate order, in a
			// register. A loop of its own: sharing the one above, ten live
			// slices spill the loop counter to the stack.
			wi, wf, wg, wo := l.gateRows(l.W, j, in, len(dhNext))
			for k, d := range dhNext {
				d += wi[k] * zi
				d += wf[k] * zf
				d += wg[k] * zg
				d += wo[k] * zo
				dhNext[k] = d
			}
		}
		dh, dhNext = dhNext, dh
		dc, dcNext = dcNext, dc
	}
}

// ZeroGrad clears accumulated gradients.
func (l *LSTM) ZeroGrad() {
	clear(l.dW)
	clear(l.dB)
}

// Params returns the parameter and gradient slices for the optimizer.
func (l *LSTM) Params() (params, grads [][]float64) {
	return [][]float64{l.W, l.B}, [][]float64{l.dW, l.dB}
}

// Dense is a fully connected layer y = Wx + b. Forward and Backward return
// layer-owned scratch, valid until the next call of the same method, so a
// Dense is single-goroutine like the LSTM it sits on.
type Dense struct {
	In, Out int
	W       []float64 // Out x In
	B       []float64
	dW, dB  []float64
	y, dx   []float64
}

// NewDense returns a Dense layer with Xavier-style initialization.
func NewDense(r *rand.Rand, in, out int) *Dense {
	d := &Dense{
		In: in, Out: out,
		W: make([]float64, out*in), B: make([]float64, out),
		dW: make([]float64, out*in), dB: make([]float64, out),
		y: make([]float64, out), dx: make([]float64, in),
	}
	scale := 1.0 / math.Sqrt(float64(in))
	for i := range d.W {
		d.W[i] = r.NormFloat64() * scale
	}
	return d
}

// Forward computes the layer output.
func (d *Dense) Forward(x []float64) []float64 {
	if len(x) != d.In {
		panic(fmt.Sprintf("forecast: dense input %d, want %d", len(x), d.In))
	}
	for o := range d.y {
		w := d.W[o*d.In : (o+1)*d.In]
		s := d.B[o]
		for i, xi := range x {
			s += w[i] * xi
		}
		d.y[o] = s
	}
	return d.y
}

// Backward accumulates gradients given the input x and dY, returning dX.
func (d *Dense) Backward(x, dY []float64) []float64 {
	dx := d.dx
	clear(dx)
	for o := 0; o < d.Out; o++ {
		w, dw := d.W[o*d.In:(o+1)*d.In], d.dW[o*d.In:(o+1)*d.In]
		dy := dY[o]
		d.dB[o] += dy
		for i := range dx {
			dw[i] += dy * x[i]
			dx[i] += w[i] * dy
		}
	}
	return dx
}

// ZeroGrad clears accumulated gradients.
func (d *Dense) ZeroGrad() {
	clear(d.dW)
	clear(d.dB)
}

// Params returns the parameter and gradient slices for the optimizer.
func (d *Dense) Params() (params, grads [][]float64) {
	return [][]float64{d.W, d.B}, [][]float64{d.dW, d.dB}
}

// Adam is the Adam optimizer over a set of parameter slices.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  [][]float64
	params, grads         [][]float64
}

// NewAdam wires an Adam optimizer to the given parameter/gradient slices.
func NewAdam(lr float64, params, grads [][]float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params, grads: grads}
	for _, p := range params {
		a.m = append(a.m, make([]float64, len(p)))
		a.v = append(a.v, make([]float64, len(p)))
	}
	return a
}

// Step applies one Adam update with gradient clipping at clip (no clipping
// when clip <= 0).
func (a *Adam) Step(clip float64) {
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
	lr, b1, b2, eps := a.LR, a.Beta1, a.Beta2, a.Eps
	b1c := 1 - math.Pow(b1, float64(a.t))
	b2c := 1 - math.Pow(b2, float64(a.t))
	for pi, p := range a.params {
		g, m, v := a.grads[pi][:len(p)], a.m[pi][:len(p)], a.v[pi][:len(p)]
		for i, gi := range g {
			mi := b1*m[i] + (1-b1)*gi
			vi := b2*v[i] + (1-b2)*gi*gi
			m[i], v[i] = mi, vi
			mh := mi / b1c
			vh := vi / b2c
			p[i] -= lr * mh / (math.Sqrt(vh) + eps)
		}
	}
}

// Softmax writes the softmax of logits (numerically stable) into dst, which
// must be at least as long as logits, and returns dst[:len(logits)].
func Softmax(dst, logits []float64) []float64 {
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	dst = dst[:len(logits)]
	sum := 0.0
	for i, v := range logits {
		e := math.Exp(v - max)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
	return dst
}

// CrossEntropyGrad writes dLogits for a softmax + cross-entropy head with
// the given target class into grad (at least as long as logits) and returns
// the loss.
func CrossEntropyGrad(grad, logits []float64, target int) float64 {
	p := Softmax(grad, logits)
	loss := -math.Log(math.Max(p[target], 1e-12))
	p[target] -= 1
	return loss
}
