package predictor

import (
	"fmt"
	"math"

	"smiless/internal/mathx"
)

// CountPredictor forecasts the number of invocations in the next time
// window from the history of per-window counts. Implementations: the
// SMIless LSTM bucket-classifier plus the ARIMA, FIP and GBT baselines.
type CountPredictor interface {
	// Name identifies the predictor in experiment output.
	Name() string
	// Fit trains on a series of per-window counts.
	Fit(counts []float64)
	// Predict returns the forecast for the window following history. The
	// history may be shorter than the training series; implementations
	// handle short histories gracefully.
	Predict(history []float64) float64
}

// InvocationPredictor is the paper's invocation-number predictor (§IV-B1):
// an LSTM classifier over buckets of size equal to the application's minimum
// batch size, predicting the upper bound of the forecast bucket so that
// underestimation (which causes SLA violations) is rare.
//
// An instance is single-goroutine: Fit, Refit and Predict all write the
// model's scratch (input window, LSTM tape, class probabilities).
type InvocationPredictor struct {
	// BucketSize is the width of each classification bucket.
	BucketSize int
	// SeqLen is the input window length (tailored per application).
	SeqLen int
	// Hidden is the LSTM width; the paper uses 30.
	Hidden int
	// Epochs is the number of training passes.
	Epochs int
	// Compensation is the fractional safety margin added to predictions;
	// the paper adds 3% to counter the residual underestimation error.
	Compensation float64
	// Quantile selects the predicted bucket as the smallest class whose
	// cumulative softmax probability reaches this level. 0.5 would be a
	// median-style argmax; the default 0.9 realizes the paper's
	// "upper bound of the bucket" reading and keeps underestimation rare.
	Quantile float64

	lstm    *LSTM
	head    *Dense
	opt     *Adam // over lstm and head; lives on after Fit so Refit continues from it
	classes int
	norm    float64 // normalization constant for inputs
	seed    int64
	win     []float64 // SeqLen normalized inputs, refilled by window
	probs   []float64 // classes softmax outputs, then dLogits when training
}

// NewInvocationPredictor returns a predictor with the paper's defaults:
// 30 hidden units and a 3% compensation margin.
func NewInvocationPredictor(bucketSize int, seed int64) *InvocationPredictor {
	if bucketSize < 1 {
		panic(fmt.Sprintf("predictor: bucket size %d", bucketSize))
	}
	return &InvocationPredictor{
		BucketSize:   bucketSize,
		SeqLen:       24,
		Hidden:       30,
		Epochs:       6,
		Compensation: 0.03,
		Quantile:     0.9,
		seed:         seed,
	}
}

// Name implements CountPredictor.
func (p *InvocationPredictor) Name() string { return "SMIless-LSTM" }

// bucket maps a count to its class index: 0 for zero, else ⌈x/B⌉.
func (p *InvocationPredictor) bucket(x float64) int {
	if x <= 0 {
		return 0
	}
	return int(math.Ceil(x / float64(p.BucketSize)))
}

// upper returns the upper bound of a bucket, the classifier's prediction.
func (p *InvocationPredictor) upper(class int) float64 {
	return float64(class * p.BucketSize)
}

// Fit implements CountPredictor: it builds the model from the seed, sizes
// the head and the input normalization from counts, and trains on every
// example.
func (p *InvocationPredictor) Fit(counts []float64) {
	if len(counts) <= p.SeqLen {
		panic(fmt.Sprintf("predictor: training series of %d windows shorter than SeqLen %d", len(counts), p.SeqLen))
	}
	maxClass := 0
	p.norm = 1
	for _, c := range counts {
		if b := p.bucket(c); b > maxClass {
			maxClass = b
		}
		if c > p.norm {
			p.norm = c
		}
	}
	// Headroom above the training maximum for unseen larger bursts.
	p.classes = maxClass + 2
	r := mathx.NewRand(p.seed)
	p.lstm = NewLSTM(r, 1, p.Hidden)
	p.head = NewDense(r, p.Hidden, p.classes)
	p.probs = make([]float64, p.classes)
	lp, lg := p.lstm.Params()
	dp, dg := p.head.Params()
	p.opt = NewAdam(0.005, append(lp, dp...), append(lg, dg...))
	p.train(counts, len(counts))
}

// Refit continues training the fitted model — same weights, optimizer
// moments, head and normalization — on counts, of which the last fresh
// windows arrived since the previous Fit or Refit; see trainEpochs for what
// it visits. Its cost follows fresh, not len(counts). Only a series the head
// cannot represent, one whose largest bucket reaches the last class so that
// no headroom is left above it, is fitted from scratch, as is any series on
// an unfitted predictor.
func (p *InvocationPredictor) Refit(counts []float64, fresh int) {
	if p.lstm == nil {
		p.Fit(counts)
		return
	}
	for _, c := range counts {
		if p.bucket(c) >= p.classes-1 {
			p.Fit(counts)
			return
		}
	}
	p.train(counts, fresh)
}

func (p *InvocationPredictor) train(counts []float64, fresh int) {
	trainEpochs(p.Epochs, p.SeqLen, len(counts), fresh, func(i int) { p.trainSample(counts, i) })
}

// trainEpochs is the training schedule of the LSTM family, from scratch and
// warm alike. The examples of a series of n observations are its indices
// first..n-1 (each predicts that observation from the ones before it). Every
// epoch visits, in ascending order, an evenly spaced replay sample of the
// examples older than the last fresh ones, as many as there are fresh ones,
// and then the fresh ones. With fresh >= n-first that is every example once
// and no replay: the from-scratch epoch.
func trainEpochs(epochs, first, n, fresh int, step func(i int)) {
	if n <= first || fresh <= 0 {
		return
	}
	if fresh > n-first {
		fresh = n - first
	}
	older := n - first - fresh
	replay := fresh
	if replay > older {
		replay = older
	}
	for epoch := 0; epoch < epochs; epoch++ {
		for j := 0; j < replay; j++ {
			// The middle of the j-th of replay equal strata.
			step(first + (2*j+1)*older/(2*replay))
		}
		for i := n - fresh; i < n; i++ {
			step(i)
		}
	}
}

// trainSample takes one optimizer step on the example that predicts
// counts[i]'s bucket from the windows before it. It allocates nothing.
func (p *InvocationPredictor) trainSample(counts []float64, i int) {
	target := p.bucket(counts[i])
	if target >= p.classes {
		target = p.classes - 1
	}
	p.lstm.ZeroGrad()
	p.head.ZeroGrad()
	h := p.lstm.Forward(p.window(counts[:i]))
	CrossEntropyGrad(p.probs, p.head.Forward(h), target)
	p.lstm.Backward(p.head.Backward(h, p.probs))
	p.opt.Step(5)
}

// window refills the normalized input sequence from the tail of history.
func (p *InvocationPredictor) window(history []float64) []float64 {
	p.win = trailingWindow(p.win, p.SeqLen, history, p.norm)
	return p.win
}

// trailingWindow returns win, reallocated only when it is not seqLen long,
// holding the last seqLen values of series divided by norm, zero-padded at
// the front when series is shorter.
func trailingWindow(win []float64, seqLen int, series []float64, norm float64) []float64 {
	if len(win) != seqLen {
		win = make([]float64, seqLen)
	}
	for i := range win {
		idx := len(series) - seqLen + i
		v := 0.0
		if idx >= 0 {
			v = series[idx]
		}
		win[i] = v / norm
	}
	return win
}

// Predict implements CountPredictor: the upper bound of the quantile
// bucket plus the compensation margin.
func (p *InvocationPredictor) Predict(history []float64) float64 {
	if p.lstm == nil {
		panic("predictor: Predict before Fit")
	}
	h := p.lstm.Forward(p.window(history))
	probs := Softmax(p.probs, p.head.Forward(h))
	q := p.Quantile
	if q <= 0 || q >= 1 {
		q = 0.9
	}
	cum := 0.0
	best := len(probs) - 1
	for i, v := range probs {
		cum += v
		if cum >= q {
			best = i
			break
		}
	}
	pred := p.upper(best)
	return math.Ceil(pred * (1 + p.Compensation))
}

// EvalCounts walks a test series one window at a time and reports the
// underestimation and overestimation behaviour the paper measures in
// Fig. 12(a): the fraction of windows where the prediction fell short of
// the true count, and the mean relative overshoot on non-zero windows.
type CountEval struct {
	UnderestimateRate float64 // fraction of windows with pred < actual
	MeanOvershoot     float64 // mean (pred-actual)/max(actual,1) on pred >= actual
	MAPE              float64 // on non-zero windows
}

// EvaluateCounts runs predictor p over the test series (after Fit on train)
// and computes the Fig. 12(a) statistics.
func EvaluateCounts(p CountPredictor, train, test []float64) CountEval {
	p.Fit(train)
	history := append([]float64(nil), train...)
	under, overSum, overN := 0, 0.0, 0
	var preds, truth []float64
	for _, actual := range test {
		pred := p.Predict(history)
		if pred < actual {
			under++
		} else {
			overSum += (pred - actual) / math.Max(actual, 1)
			overN++
		}
		preds = append(preds, pred)
		truth = append(truth, actual)
		history = append(history, actual)
	}
	ev := CountEval{
		UnderestimateRate: float64(under) / float64(len(test)),
		MAPE:              mathx.MAPE(preds, truth),
	}
	if overN > 0 {
		ev.MeanOvershoot = overSum / float64(overN)
	}
	return ev
}
