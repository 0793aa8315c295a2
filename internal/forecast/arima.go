package forecast

import "smiless/internal/mathx"

// arimaForecaster is the autoregressive baseline the paper compares against
// (Fig. 12): an AR(p) model with intercept, fit by least squares — ARIMA(8,0,0)
// as registered. The Azure trace study (Shahrad et al.) uses the same family
// for invocation forecasting. It is seedless: the fit is closed-form.
type arimaForecaster struct {
	series
	cfg  Config
	p    int       // autoregressive order
	coef []float64 // AR coefficients (lag 1 first) plus intercept; nil before Fit
}

func (f *arimaForecaster) Name() string { return "arima" }

func (f *arimaForecaster) Fit(hist []Observation) error {
	if len(hist) <= f.p+1 {
		return ErrShortSeries
	}
	f.replace(hist)
	p, s := f.p, f.hist
	n := len(s) - p
	x := mathx.NewMatrix(n, p+1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			x.Set(i, j, s[i+p-1-j].Value) // lag j+1
		}
		x.Set(i, p, 1) // intercept
		y[i] = s[i+p].Value
	}
	coef, err := mathx.LeastSquares(x, y)
	if err != nil {
		// Degenerate series (e.g. constant): fall back to the mean.
		coef = make([]float64, p+1)
		coef[p] = mathx.Mean(y)
	}
	f.coef = coef
	return nil
}

func (f *arimaForecaster) Predict(horizon int) []float64 {
	validHorizon(horizon)
	if f.coef == nil {
		return persistence(f.hist, horizon)
	}
	return rollForward(f.tail(f.p+horizon), horizon, f.step)
}

// step is the one-step forecast after h, which holds at least p
// observations, as every fitted history does.
func (f *arimaForecaster) step(h []Observation) float64 {
	pred := f.coef[f.p]
	for j := 0; j < f.p; j++ {
		pred += f.coef[j] * h[len(h)-1-j].Value
	}
	if pred < 0 {
		pred = 0
	}
	return pred
}

func (f *arimaForecaster) Update(obs Observation) { f.append(obs) }

func (f *arimaForecaster) Clone(seed int64) Forecaster {
	cfg := f.cfg
	cfg.Seed = seed
	return &arimaForecaster{cfg: cfg, p: f.p}
}
