package forecast

import (
	"math"

	"smiless/internal/mathx"
)

// lstmState is what the paper's two LSTM models share. They are one family,
// "lstm": RoleCount gets the bucket classifier (countLSTM), RoleInterArrival
// the dual-input regressor (iatLSTM). The first successful Fit trains from
// the seed; every later Fit is a warm refit that keeps the weights, optimizer
// state and normalization and trains on the observations Updated since the
// last successful Fit — taken to be hist's last ones — plus an equally sized
// replay sample of the older tail (trainEpochs), so a refit costs what the
// new data costs, not what the tail does. An instance is single-goroutine:
// Fit, Predict and Update all write the model's scratch.
type lstmState struct {
	series
	cfg Config
	// fresh counts the Updates since the last successful Fit: how many of the
	// next Fit's trailing observations the model has not trained on.
	fresh int
	// memo is the last forecast computed for the current (model, history),
	// nil once either changes. PredictUpper repeats Predict at the same
	// horizon every window, and the LSTM roll-forward is the family's
	// whole prediction cost.
	memo []float64
	// valBuf and covBuf are the tail of the history split into the aligned
	// series the models read, refilled for every roll-forward step.
	valBuf, covBuf []float64
}

func (s *lstmState) Name() string { return "lstm" }

func (s *lstmState) Update(obs Observation) {
	s.append(obs)
	s.fresh++
	s.memo = nil
}

// fitWith is Fit for a model that needs more than n observations: refit
// trains it on the installed history, the last s.fresh observations new.
func (s *lstmState) fitWith(hist []Observation, n int, refit func()) error {
	if len(hist) <= n {
		return ErrShortSeries
	}
	s.replace(hist)
	refit()
	s.memo, s.fresh = nil, 0
	return nil
}

// predict returns the caller's own copy of the forecast, computing it only
// when the model or the history changed since the last call at this horizon:
// by rolling step forward over the last seqLen observations once trained,
// by persistence before.
func (s *lstmState) predict(horizon, seqLen int, trained bool, step func(vals, covs []float64) float64) []float64 {
	validHorizon(horizon)
	if len(s.memo) != horizon {
		if trained {
			s.memo = rollForward(s.tail(seqLen+horizon), horizon, func(h []Observation) float64 {
				return step(s.split(h))
			})
		} else {
			s.memo = persistence(s.hist, horizon)
		}
	}
	return append([]float64(nil), s.memo...)
}

// split copies h's values and covariates into the forecaster's scratch.
func (s *lstmState) split(h []Observation) (vals, covs []float64) {
	s.valBuf, s.covBuf = s.valBuf[:0], s.covBuf[:0]
	for _, o := range h {
		s.valBuf = append(s.valBuf, o.Value)
		s.covBuf = append(s.covBuf, o.Cov)
	}
	return s.valBuf, s.covBuf
}

// countLSTM is the paper's invocation-number predictor (§IV-B1): an LSTM
// classifier over buckets of size equal to the application's minimum batch
// size, predicting the upper bound of the forecast bucket so that
// underestimation (which causes SLA violations) is rare.
type countLSTM struct {
	lstmState
	bucketSize int // width of each classification bucket
	seqLen     int // input window length
	hidden     int // LSTM width; the paper uses 30
	epochs     int // training passes

	lstm    *LSTM
	head    *Dense
	opt     *Adam // over lstm and head; lives on after fit so refit continues from it
	classes int
	norm    float64   // normalization constant for inputs
	win     []float64 // seqLen normalized inputs, refilled by window
	probs   []float64 // classes softmax outputs, then dLogits when training
}

const (
	// countCompensation is the fractional safety margin added to
	// predictions: the paper adds 3% to counter the residual
	// underestimation error.
	countCompensation = 0.03
	// countQuantile selects the predicted bucket as the smallest class whose
	// cumulative softmax probability reaches it. 0.5 would be a median-style
	// argmax; 0.9 realizes the paper's "upper bound of the bucket" reading
	// and keeps underestimation rare.
	countQuantile = 0.9
	// countFitMargin is the number of supervised examples beyond one input
	// window required before the classifier trains; below it the series
	// carries too little signal and Fit reports ErrShortSeries.
	countFitMargin = 10
)

// newCountLSTM returns the classifier with the paper's defaults (30 hidden
// units) at bucket size 1, training 6 epochs offline and 2 online.
func newCountLSTM(cfg Config) *countLSTM {
	f := &countLSTM{lstmState: lstmState{cfg: cfg}, bucketSize: 1, seqLen: 24, hidden: 30, epochs: 6}
	if cfg.Budget == BudgetOnline {
		f.epochs = 2
	}
	return f
}

func (f *countLSTM) Fit(hist []Observation) error {
	return f.fitWith(hist, f.seqLen+countFitMargin, func() { f.refit(f.column(false), f.fresh) })
}

func (f *countLSTM) Predict(horizon int) []float64 {
	return f.predict(horizon, f.seqLen, f.lstm != nil, func(vals, _ []float64) float64 { return f.forecast(vals) })
}

// PredictUpper implements UpperBounder: the point forecast is already the
// compensated bucket upper bound.
func (f *countLSTM) PredictUpper(horizon int) []float64 { return f.Predict(horizon) }

func (f *countLSTM) Clone(seed int64) Forecaster {
	cfg := f.cfg
	cfg.Seed = seed
	return newCountLSTM(cfg)
}

// bucket maps a count to its class index: 0 for zero, else ⌈x/B⌉.
func (f *countLSTM) bucket(x float64) int {
	if x <= 0 {
		return 0
	}
	return int(math.Ceil(x / float64(f.bucketSize)))
}

// upper returns the upper bound of a bucket, the classifier's prediction.
func (f *countLSTM) upper(class int) float64 {
	return float64(class * f.bucketSize)
}

// fit builds the model from the seed, sizes the head and the input
// normalization from counts, and trains on every example.
func (f *countLSTM) fit(counts []float64) {
	maxClass := 0
	f.norm = 1
	for _, c := range counts {
		if b := f.bucket(c); b > maxClass {
			maxClass = b
		}
		if c > f.norm {
			f.norm = c
		}
	}
	// Headroom above the training maximum for unseen larger bursts.
	f.classes = maxClass + 2
	r := mathx.NewRand(f.cfg.Seed)
	f.lstm = NewLSTM(r, 1, f.hidden)
	f.head = NewDense(r, f.hidden, f.classes)
	f.probs = make([]float64, f.classes)
	lp, lg := f.lstm.Params()
	dp, dg := f.head.Params()
	f.opt = NewAdam(0.005, append(lp, dp...), append(lg, dg...))
	f.train(counts, len(counts))
}

// refit continues training the fitted model — same weights, optimizer
// moments, head and normalization — on counts, of which the last fresh
// windows arrived since the previous training; see trainEpochs for what it
// visits. Only a series the head cannot represent, one whose largest bucket
// reaches the last class so that no headroom is left above it, is fitted
// from scratch, as is any series on an unfitted model.
func (f *countLSTM) refit(counts []float64, fresh int) {
	if f.lstm == nil {
		f.fit(counts)
		return
	}
	for _, c := range counts {
		if f.bucket(c) >= f.classes-1 {
			f.fit(counts)
			return
		}
	}
	f.train(counts, fresh)
}

func (f *countLSTM) train(counts []float64, fresh int) {
	trainEpochs(f.epochs, f.seqLen, len(counts), fresh, func(i int) { f.trainSample(counts, i) })
}

// trainSample takes one optimizer step on the example that predicts
// counts[i]'s bucket from the windows before it. It allocates nothing.
func (f *countLSTM) trainSample(counts []float64, i int) {
	target := f.bucket(counts[i])
	if target >= f.classes {
		target = f.classes - 1
	}
	f.lstm.ZeroGrad()
	f.head.ZeroGrad()
	h := f.lstm.Forward(f.window(counts[:i]))
	CrossEntropyGrad(f.probs, f.head.Forward(h), target)
	f.lstm.Backward(f.head.Backward(h, f.probs))
	f.opt.Step(5)
}

// window refills the normalized input sequence from the tail of history.
func (f *countLSTM) window(history []float64) []float64 {
	f.win = trailingWindow(f.win, f.seqLen, history, f.norm)
	return f.win
}

// forecast is the one-step prediction after history on the trained model:
// the upper bound of the quantile bucket plus the compensation margin.
func (f *countLSTM) forecast(history []float64) float64 {
	h := f.lstm.Forward(f.window(history))
	probs := Softmax(f.probs, f.head.Forward(h))
	cum := 0.0
	best := len(probs) - 1
	for i, v := range probs {
		cum += v
		if cum >= countQuantile {
			best = i
			break
		}
	}
	return math.Ceil(f.upper(best) * (1 + countCompensation))
}

// iatLSTM is the paper's dedicated Inter-arrival Time Predictor (§IV-B2): two
// LSTM modules process the inter-arrival series and the invocation-count
// series (the covariate) separately; their hidden states are merged, passed
// through a tanh activation and a linear layer to produce the next
// inter-arrival time. Without dualInput it is the paper's SMIless-S ablation
// (a single LSTM on inter-arrival times only).
type iatLSTM struct {
	lstmState
	seqLen    int  // input window length for both series
	hidden    int  // per-module LSTM width (the paper's 128, reduced to keep pure-Go training fast)
	epochs    int  // training passes
	dualInput bool // the two-module architecture

	lstmIAT   *LSTM
	lstmCount *LSTM
	merge     *Dense // merged hidden -> hidden (with tanh)
	head      *Dense // hidden -> 1
	opt       *Adam  // over every module; lives on after fit so refit continues from it
	iatNorm   float64
	countNorm float64

	// Scratch of the last forward pass, read back by backward.
	winIAT, winCnt []float64 // seqLen normalized inputs each
	merged         []float64 // merge input: hIAT, then hCnt when dualInput
	act            []float64 // tanh(merge output)
	dY             [1]float64
}

// iatOverPenalty weights over-estimation errors more heavily in the loss,
// matching the paper's design goal of preventing over-estimations that would
// mis-schedule pre-warming.
const iatOverPenalty = 3

// newIATLSTM returns the regressor, training 8 epochs offline and 3 online.
func newIATLSTM(cfg Config, dualInput bool) *iatLSTM {
	f := &iatLSTM{lstmState: lstmState{cfg: cfg}, seqLen: 16, hidden: 24, epochs: 8, dualInput: dualInput}
	if cfg.Budget == BudgetOnline {
		f.epochs = 3
	}
	return f
}

// NewSingleInputIAT returns the SMIless-S ablation of the inter-arrival
// regressor: one LSTM over inter-arrival times only. It is not registered;
// the Fig. 12 study builds it by hand.
func NewSingleInputIAT(cfg Config) Forecaster { return newIATLSTM(cfg, false) }

func (f *iatLSTM) Fit(hist []Observation) error {
	return f.fitWith(hist, f.seqLen, func() { f.refit(f.column(false), f.column(true), f.fresh) })
}

func (f *iatLSTM) Predict(horizon int) []float64 {
	return f.predict(horizon, f.seqLen, f.lstmIAT != nil, f.forecast)
}

// PredictUpper implements UpperBounder. The regressor trains with an
// asymmetric over-estimation penalty, so its point forecast is a
// deliberately conservative-from-below estimate; it is returned unchanged.
func (f *iatLSTM) PredictUpper(horizon int) []float64 { return f.Predict(horizon) }

func (f *iatLSTM) Clone(seed int64) Forecaster {
	cfg := f.cfg
	cfg.Seed = seed
	return newIATLSTM(cfg, f.dualInput)
}

func (f *iatLSTM) params() (params, grads [][]float64) {
	ps, gs := f.lstmIAT.Params()
	if f.dualInput {
		p2, g2 := f.lstmCount.Params()
		ps, gs = append(ps, p2...), append(gs, g2...)
	}
	p3, g3 := f.merge.Params()
	p4, g4 := f.head.Params()
	return append(append(ps, p3...), p4...), append(append(gs, g3...), g4...)
}

func (f *iatLSTM) zeroGrad() {
	f.lstmIAT.ZeroGrad()
	if f.dualInput {
		f.lstmCount.ZeroGrad()
	}
	f.merge.ZeroGrad()
	f.head.ZeroGrad()
}

// forward runs the network and returns the scalar prediction (normalized),
// leaving the intermediate values backward needs in the model's scratch.
func (f *iatLSTM) forward(iats, counts []float64) float64 {
	f.winIAT = trailingWindow(f.winIAT, f.seqLen, iats, f.iatNorm)
	f.merged = append(f.merged[:0], f.lstmIAT.Forward(f.winIAT)...)
	if f.dualInput {
		f.winCnt = trailingWindow(f.winCnt, f.seqLen, counts, f.countNorm)
		f.merged = append(f.merged, f.lstmCount.Forward(f.winCnt)...)
	}
	for i, v := range f.merge.Forward(f.merged) {
		f.act[i] = math.Tanh(v)
	}
	return f.head.Forward(f.act)[0]
}

// backward propagates dY through head, activation, merge and both LSTMs.
func (f *iatLSTM) backward(dY float64) {
	f.dY[0] = dY
	dPre := f.head.Backward(f.act, f.dY[:])
	for i, a := range f.act {
		dPre[i] = dPre[i] * (1 - a*a)
	}
	dMerged := f.merge.Backward(f.merged, dPre)
	h := f.lstmIAT.Hidden
	f.lstmIAT.Backward(dMerged[:h])
	if f.dualInput {
		f.lstmCount.Backward(dMerged[h:])
	}
}

// fit builds the model from the seed and trains on the aligned series:
// iats[i] is the gap after arrival i, counts[i] the invocation count in the
// window containing that arrival (context about the current load regime).
func (f *iatLSTM) fit(iats, counts []float64) {
	f.iatNorm = math.Max(mathx.Max(iats), 1e-9)
	f.countNorm = math.Max(mathx.Max(counts), 1)
	r := mathx.NewRand(f.cfg.Seed)
	f.lstmIAT = NewLSTM(r, 1, f.hidden)
	mergeIn := f.hidden
	if f.dualInput {
		f.lstmCount = NewLSTM(r, 1, f.hidden)
		mergeIn = 2 * f.hidden
	}
	f.merge = NewDense(r, mergeIn, f.hidden)
	f.head = NewDense(r, f.hidden, 1)
	f.merged = make([]float64, 0, mergeIn)
	f.act = make([]float64, f.hidden)
	params, grads := f.params()
	f.opt = NewAdam(0.005, params, grads)
	f.train(iats, counts, len(iats))
}

// refit continues training the fitted model — same weights, optimizer
// moments and normalization — on the aligned series, of which the last fresh
// gaps arrived since the previous training; see trainEpochs for what it
// visits. On an unfitted model it is fit.
func (f *iatLSTM) refit(iats, counts []float64, fresh int) {
	if f.lstmIAT == nil {
		f.fit(iats, counts)
		return
	}
	f.train(iats, counts, fresh)
}

func (f *iatLSTM) train(iats, counts []float64, fresh int) {
	trainEpochs(f.epochs, f.seqLen, len(iats), fresh, func(i int) { f.trainSample(iats, counts, i) })
}

// trainSample takes one optimizer step on the example that predicts
// iats[i] from the two series before it. It allocates nothing.
func (f *iatLSTM) trainSample(iats, counts []float64, i int) {
	target := iats[i] / f.iatNorm
	f.zeroGrad()
	diff := f.forward(iats[:i], counts[:i]) - target
	// Asymmetric squared loss: over-estimations (diff > 0) are penalized
	// iatOverPenalty times more.
	w := 1.0
	if diff > 0 {
		w = iatOverPenalty
	}
	f.backward(w * diff)
	f.opt.Step(5)
}

// forecast is the one-step prediction after the aligned histories on the
// trained model, clamped non-negative.
func (f *iatLSTM) forecast(iats, counts []float64) float64 {
	v := f.forward(iats, counts) * f.iatNorm
	if v < 0 {
		v = 0
	}
	return v
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

// trailingWindow returns win, reallocated only when it is not seqLen long,
// holding the last seqLen of vals divided by norm, zero-padded at the front
// when vals is shorter.
func trailingWindow(win []float64, seqLen int, vals []float64, norm float64) []float64 {
	if len(win) != seqLen {
		win = make([]float64, seqLen)
	}
	for i := range win {
		idx := len(vals) - seqLen + i
		v := 0.0
		if idx >= 0 {
			v = vals[idx]
		}
		win[i] = v / norm
	}
	return win
}
