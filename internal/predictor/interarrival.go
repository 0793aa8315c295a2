package predictor

import (
	"math"

	"smiless/internal/mathx"
)

// IATPredictor forecasts the next inter-arrival time.
type IATPredictor interface {
	Name() string
	// FitIAT trains on aligned series: iats[i] is the gap after arrival i,
	// and counts[i] is the invocation count in the window containing that
	// arrival (context about the current load regime).
	FitIAT(iats, counts []float64)
	// PredictIAT forecasts the next gap from the two aligned histories.
	PredictIAT(iats, counts []float64) float64
}

// InterArrivalPredictor is the paper's dedicated Inter-arrival Time
// Predictor (§IV-B2): two LSTM modules process the inter-arrival series and
// the invocation-count series separately; their hidden states are merged,
// passed through a tanh activation and a linear layer to produce the next
// inter-arrival time. Setting DualInput to false yields the paper's
// SMIless-S ablation (single LSTM on inter-arrival times only).
//
// An instance is single-goroutine: FitIAT, RefitIAT and PredictIAT all write
// the model's scratch (input windows, LSTM tapes, merge activations).
type InterArrivalPredictor struct {
	// SeqLen is the input window length for both series.
	SeqLen int
	// Hidden is the per-module LSTM width; the paper uses 128, which is
	// reduced here by default to keep pure-Go training fast. The merge and
	// head structure is unchanged.
	Hidden int
	// Epochs is the number of training passes.
	Epochs int
	// DualInput selects the two-module architecture; false reproduces the
	// single-input SMIless-S variant.
	DualInput bool
	// OverPenalty > 1 weights over-estimation errors more heavily in the
	// loss, matching the paper's design goal of preventing over-estimations
	// that would mis-schedule pre-warming.
	OverPenalty float64

	lstmIAT   *LSTM
	lstmCount *LSTM
	merge     *Dense // merged hidden -> hidden (with tanh)
	head      *Dense // hidden -> 1
	opt       *Adam  // over every module; lives on after FitIAT so RefitIAT continues from it
	iatNorm   float64
	countNorm float64
	seed      int64

	// Scratch of the last forward pass, read back by backward.
	winIAT, winCnt []float64 // SeqLen normalized inputs each
	merged         []float64 // merge input: hIAT, then hCnt when DualInput
	act            []float64 // tanh(merge output)
	dY             [1]float64
}

// NewInterArrivalPredictor returns the dual-input predictor.
func NewInterArrivalPredictor(seed int64) *InterArrivalPredictor {
	return &InterArrivalPredictor{
		SeqLen:      16,
		Hidden:      24,
		Epochs:      8,
		DualInput:   true,
		OverPenalty: 3,
		seed:        seed,
	}
}

// NewSingleInputIAT returns the SMIless-S ablation: one LSTM over
// inter-arrival times only.
func NewSingleInputIAT(seed int64) *InterArrivalPredictor {
	p := NewInterArrivalPredictor(seed)
	p.DualInput = false
	return p
}

// Name implements IATPredictor.
func (p *InterArrivalPredictor) Name() string {
	if p.DualInput {
		return "SMIless-IAT"
	}
	return "SMIless-S"
}

func (p *InterArrivalPredictor) params() (params, grads [][]float64) {
	ps, gs := p.lstmIAT.Params()
	if p.DualInput {
		p2, g2 := p.lstmCount.Params()
		ps, gs = append(ps, p2...), append(gs, g2...)
	}
	p3, g3 := p.merge.Params()
	p4, g4 := p.head.Params()
	return append(append(ps, p3...), p4...), append(append(gs, g3...), g4...)
}

func (p *InterArrivalPredictor) zeroGrad() {
	p.lstmIAT.ZeroGrad()
	if p.DualInput {
		p.lstmCount.ZeroGrad()
	}
	p.merge.ZeroGrad()
	p.head.ZeroGrad()
}

// forward runs the network and returns the scalar prediction (normalized),
// leaving the intermediate values backward needs in the model's scratch.
func (p *InterArrivalPredictor) forward(iats, counts []float64) float64 {
	p.winIAT = trailingWindow(p.winIAT, p.SeqLen, iats, p.iatNorm)
	p.merged = append(p.merged[:0], p.lstmIAT.Forward(p.winIAT)...)
	if p.DualInput {
		p.winCnt = trailingWindow(p.winCnt, p.SeqLen, counts, p.countNorm)
		p.merged = append(p.merged, p.lstmCount.Forward(p.winCnt)...)
	}
	for i, v := range p.merge.Forward(p.merged) {
		p.act[i] = math.Tanh(v)
	}
	return p.head.Forward(p.act)[0]
}

// backward propagates dY through head, activation, merge and both LSTMs.
func (p *InterArrivalPredictor) backward(dY float64) {
	p.dY[0] = dY
	dPre := p.head.Backward(p.act, p.dY[:])
	for i, a := range p.act {
		dPre[i] = dPre[i] * (1 - a*a)
	}
	dMerged := p.merge.Backward(p.merged, dPre)
	h := p.lstmIAT.Hidden
	p.lstmIAT.Backward(dMerged[:h])
	if p.DualInput {
		p.lstmCount.Backward(dMerged[h:])
	}
}

// FitIAT implements IATPredictor. A series no longer than SeqLen carries
// nothing to train on; the call is a no-op and the predictor stays
// untrained, so PredictIAT keeps using its persistence fallback.
func (p *InterArrivalPredictor) FitIAT(iats, counts []float64) {
	if len(iats) <= p.SeqLen {
		return
	}
	if len(counts) != len(iats) {
		panic("predictor: iats and counts must be aligned")
	}
	p.iatNorm = math.Max(mathx.Max(iats), 1e-9)
	p.countNorm = math.Max(mathx.Max(counts), 1)
	r := mathx.NewRand(p.seed)
	p.lstmIAT = NewLSTM(r, 1, p.Hidden)
	mergeIn := p.Hidden
	if p.DualInput {
		p.lstmCount = NewLSTM(r, 1, p.Hidden)
		mergeIn = 2 * p.Hidden
	}
	p.merge = NewDense(r, mergeIn, p.Hidden)
	p.head = NewDense(r, p.Hidden, 1)
	p.merged = make([]float64, 0, mergeIn)
	p.act = make([]float64, p.Hidden)
	params, grads := p.params()
	p.opt = NewAdam(0.005, params, grads)
	p.train(iats, counts, len(iats))
}

// RefitIAT continues training the fitted model — same weights, optimizer
// moments and normalization — on the aligned series, of which the last fresh
// gaps arrived since the previous FitIAT or RefitIAT; see trainEpochs for
// what it visits. Its cost follows fresh, not len(iats). On an unfitted
// predictor it is FitIAT.
func (p *InterArrivalPredictor) RefitIAT(iats, counts []float64, fresh int) {
	if p.lstmIAT == nil {
		p.FitIAT(iats, counts)
		return
	}
	if len(counts) != len(iats) {
		panic("predictor: iats and counts must be aligned")
	}
	p.train(iats, counts, fresh)
}

func (p *InterArrivalPredictor) train(iats, counts []float64, fresh int) {
	trainEpochs(p.Epochs, p.SeqLen, len(iats), fresh, func(i int) { p.trainSample(iats, counts, i) })
}

// trainSample takes one optimizer step on the example that predicts
// iats[i] from the two series before it. It allocates nothing.
func (p *InterArrivalPredictor) trainSample(iats, counts []float64, i int) {
	target := iats[i] / p.iatNorm
	p.zeroGrad()
	diff := p.forward(iats[:i], counts[:i]) - target
	// Asymmetric squared loss: over-estimations (diff > 0) are penalized
	// OverPenalty times more.
	w := 1.0
	if diff > 0 && p.OverPenalty > 1 {
		w = p.OverPenalty
	}
	p.backward(w * diff)
	p.opt.Step(5)
}

// PredictIAT implements IATPredictor. Untrained (FitIAT never ran, or only
// saw short series) or given no history, it falls back to persistence:
// predict the last observed gap, clamped non-negative, or 0 with no
// history at all.
func (p *InterArrivalPredictor) PredictIAT(iats, counts []float64) float64 {
	if p.lstmIAT == nil || len(iats) == 0 {
		return persistenceIAT(iats)
	}
	v := p.forward(iats, counts) * p.iatNorm
	if v < 0 {
		v = 0
	}
	return v
}

// persistenceIAT is the documented untrained fallback: the most recent
// observed gap, clamped non-negative (out-of-order timestamps can produce
// negative gaps), or 0 with no history.
func persistenceIAT(iats []float64) float64 {
	if len(iats) == 0 {
		return 0
	}
	last := iats[len(iats)-1]
	if last < 0 {
		return 0
	}
	return last
}

// IATEval summarizes inter-arrival prediction quality as in Fig. 12(b).
type IATEval struct {
	MAPE             float64 // mean absolute percentage error
	OverestimateRate float64 // fraction of predictions above the true gap
	MeanOvershoot    float64 // mean relative overshoot on over-estimates
}

// EvaluateIAT fits on the training prefix and walks the test series.
func EvaluateIAT(p IATPredictor, trainIAT, trainCnt, testIAT, testCnt []float64) IATEval {
	p.FitIAT(trainIAT, trainCnt)
	histI := append([]float64(nil), trainIAT...)
	histC := append([]float64(nil), trainCnt...)
	var preds, truth []float64
	over, overSum := 0, 0.0
	for i, actual := range testIAT {
		pred := p.PredictIAT(histI, histC)
		preds = append(preds, pred)
		truth = append(truth, actual)
		if pred > actual {
			over++
			if actual > 0 {
				overSum += (pred - actual) / actual
			}
		}
		histI = append(histI, actual)
		histC = append(histC, testCnt[i])
	}
	ev := IATEval{MAPE: mathx.MAPE(preds, truth)}
	if len(testIAT) > 0 {
		ev.OverestimateRate = float64(over) / float64(len(testIAT))
	}
	if over > 0 {
		ev.MeanOvershoot = overSum / float64(over)
	}
	return ev
}
