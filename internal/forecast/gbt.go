package forecast

import (
	"math"
	"sort"

	"smiless/internal/mathx"
)

// gbtForecaster is a gradient-boosted regression-tree model over lag
// features — the stand-in for the XGBoost baseline in Fig. 12. Each boosting
// round fits a depth-1 regression tree (stump) to the residuals; splits are
// chosen greedily over feature quantiles.
type gbtForecaster struct {
	series
	cfg    Config
	base   float64
	stumps []stump // nil before Fit
}

// XGBoost-flavoured defaults.
const (
	gbtLags         = 12  // lagged values used as features
	gbtRounds       = 100 // boosting rounds
	gbtLearningRate = 0.1 // shrinks each stump's contribution
)

type stump struct {
	feature     int
	threshold   float64
	left, right float64
}

func (s stump) predict(x []float64) float64 {
	if x[s.feature] <= s.threshold {
		return s.left
	}
	return s.right
}

func (f *gbtForecaster) Name() string { return "gbt" }

// lags extracts the lag vector of the observations before h's end.
func lags(h []Observation) []float64 {
	x := make([]float64, gbtLags)
	for j := range x {
		if idx := len(h) - 1 - j; idx >= 0 {
			x[j] = h[idx].Value
		}
	}
	return x
}

func (f *gbtForecaster) Fit(hist []Observation) error {
	if len(hist) <= gbtLags+1 {
		return ErrShortSeries
	}
	f.replace(hist)
	n := len(f.hist) - gbtLags
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = lags(f.hist[:i+gbtLags])
		ys[i] = f.hist[i+gbtLags].Value
	}
	f.base = mathx.Mean(ys)
	resid := make([]float64, n)
	for i := range ys {
		resid[i] = ys[i] - f.base
	}
	f.stumps = make([]stump, 0, gbtRounds)
	for round := 0; round < gbtRounds; round++ {
		st, ok := bestStump(xs, resid)
		if !ok {
			break
		}
		st.left *= gbtLearningRate
		st.right *= gbtLearningRate
		f.stumps = append(f.stumps, st)
		for i, x := range xs {
			resid[i] -= st.predict(x)
		}
	}
	return nil
}

func (f *gbtForecaster) Predict(horizon int) []float64 {
	validHorizon(horizon)
	if f.stumps == nil {
		return persistence(f.hist, horizon)
	}
	return rollForward(f.tail(gbtLags+horizon), horizon, f.step)
}

// step is the one-step forecast after h.
func (f *gbtForecaster) step(h []Observation) float64 {
	x := lags(h)
	pred := f.base
	for _, st := range f.stumps {
		pred += st.predict(x)
	}
	if pred < 0 {
		pred = 0
	}
	return pred
}

func (f *gbtForecaster) Update(obs Observation) { f.append(obs) }

func (f *gbtForecaster) Clone(seed int64) Forecaster {
	cfg := f.cfg
	cfg.Seed = seed
	return &gbtForecaster{cfg: cfg}
}

// bestStump finds the (feature, threshold) split minimizing residual SSE,
// scanning candidate thresholds at feature quantiles.
func bestStump(xs [][]float64, resid []float64) (stump, bool) {
	n := len(xs)
	if n < 4 {
		return stump{}, false
	}
	nFeat := len(xs[0])
	bestSSE := math.Inf(1)
	var best stump
	found := false
	vals := make([]float64, n)
	for f := 0; f < nFeat; f++ {
		for i := range xs {
			vals[i] = xs[i][f]
		}
		cand := quantiles(vals, 16)
		for _, th := range cand {
			var sumL, sumR float64
			var nL, nR int
			for i := range xs {
				if xs[i][f] <= th {
					sumL += resid[i]
					nL++
				} else {
					sumR += resid[i]
					nR++
				}
			}
			if nL == 0 || nR == 0 {
				continue
			}
			mL, mR := sumL/float64(nL), sumR/float64(nR)
			sse := 0.0
			for i := range xs {
				var d float64
				if xs[i][f] <= th {
					d = resid[i] - mL
				} else {
					d = resid[i] - mR
				}
				sse += d * d
			}
			if sse < bestSSE {
				bestSSE = sse
				best = stump{feature: f, threshold: th, left: mL, right: mR}
				found = true
			}
		}
	}
	return best, found
}

// quantiles returns up to k distinct quantile values of xs.
func quantiles(xs []float64, k int) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var out []float64
	seen := map[float64]bool{}
	for i := 1; i <= k; i++ {
		v := sorted[(len(sorted)-1)*i/(k+1)]
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
