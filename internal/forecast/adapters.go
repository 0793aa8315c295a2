package forecast

import (
	"smiless/internal/predictor"
)

// This file adapts the concrete predictors of internal/predictor to the
// Forecaster interface. Each adapter keeps the observation history itself
// (the concrete types are stateless with respect to history). The first
// successful Fit builds the model from the configured seed; the closed-form
// and training-free families rebuild it on every later Fit as well, while
// the LSTM pair continues training the fitted model on what arrived since
// (see lstmForecaster.Fit). Either way the outputs are a pure function of
// the Config and the sequence of Fit and Update calls.

func init() {
	Register("lstm", func(cfg Config) Forecaster { return &lstmForecaster{cfg: cfg} })
	Register("arima", func(cfg Config) Forecaster { return &arimaForecaster{cfg: cfg} })
	Register("fip", func(cfg Config) Forecaster { return &fipForecaster{cfg: cfg, fip: predictor.NewFIP()} })
	Register("gbt", func(cfg Config) Forecaster { return &gbtForecaster{cfg: cfg} })
	Register("histogram", func(cfg Config) Forecaster { return newHistogramForecaster(cfg) })
	Register("naive", func(cfg Config) Forecaster { return &naiveForecaster{cfg: cfg} })
}

// rollForward produces a multi-step forecast by iterating a one-step
// predictor: each predicted value is appended to a scratch history (with
// the covariate held at its last observed value) before predicting the
// next step. Horizon 1 never copies the history.
func rollForward(hist []Observation, horizon int, step func(h []Observation) float64) []float64 {
	validHorizon(horizon)
	out := make([]float64, horizon)
	out[0] = step(hist)
	if horizon == 1 {
		return out
	}
	scratch := append(make([]Observation, 0, len(hist)+horizon-1), hist...)
	cov := 0.0
	if len(hist) > 0 {
		cov = hist[len(hist)-1].Cov
	}
	for i := 1; i < horizon; i++ {
		scratch = append(scratch, Observation{Value: out[i-1], Cov: cov})
		out[i] = step(scratch)
	}
	return out
}

// lstmForecaster is the paper's LSTM pair behind one name: RoleCount uses
// the bucket-classifying InvocationPredictor (whose predictions are upper
// bounds by construction), RoleInterArrival the dual-input
// InterArrivalPredictor. BudgetOnline trains with the reduced epoch counts
// the controller's in-loop refits use (2 count / 3 inter-arrival);
// BudgetOffline keeps the concrete defaults (6 / 8).
type lstmForecaster struct {
	series
	cfg Config
	inv *predictor.InvocationPredictor
	iat *predictor.InterArrivalPredictor
	// fresh counts the Updates since the last successful Fit: how many of the
	// next Fit's trailing observations the model has not trained on.
	fresh int
	// memo is the last forecast computed for the current (model, history),
	// nil once either changes. PredictUpper repeats Predict at the same
	// horizon every window, and the LSTM roll-forward is the family's
	// whole prediction cost.
	memo []float64
	// valBuf and covBuf are the tail of the history split into the aligned
	// series the predictors read, refilled for every roll-forward step.
	valBuf, covBuf []float64
}

func (f *lstmForecaster) Name() string { return "lstm" }

// countFitMargin is the number of supervised examples beyond one input
// window required before the count classifier trains; below it the series
// carries too little signal and Fit reports ErrShortSeries. This is the
// activation gate the controller historically applied inline.
const countFitMargin = 10

// Fit trains from the seed the first time it succeeds. Every later Fit is a
// warm refit: the fitted predictor keeps its weights, optimizer state and
// normalization and trains on the observations Updated since the last
// successful Fit — taken to be hist's last ones — plus an equally sized replay
// sample of the older tail, so a refit costs what the new data costs, not
// what the tail does. The count classifier alone starts over, when hist holds
// a bucket its head has no class for (predictor.InvocationPredictor.Refit).
func (f *lstmForecaster) Fit(hist []Observation) error {
	if f.cfg.Role == RoleInterArrival {
		p := f.iat
		if p == nil {
			p = predictor.NewInterArrivalPredictor(f.cfg.Seed)
			if f.cfg.Budget == BudgetOnline {
				p.Epochs = 3
			}
		}
		if len(hist) <= p.SeqLen {
			return ErrShortSeries
		}
		f.replace(hist)
		p.RefitIAT(f.values(), f.covs(), f.fresh)
		f.iat, f.memo, f.fresh = p, nil, 0
		return nil
	}
	p := f.inv
	if p == nil {
		p = predictor.NewInvocationPredictor(1, f.cfg.Seed)
		if f.cfg.Budget == BudgetOnline {
			p.Epochs = 2
		}
	}
	if len(hist) <= p.SeqLen+countFitMargin {
		return ErrShortSeries
	}
	f.replace(hist)
	p.Refit(f.values(), f.fresh)
	f.inv, f.memo, f.fresh = p, nil, 0
	return nil
}

// Predict returns the caller's own copy of the forecast, computing it only
// when the model or the history changed since the last call at this horizon.
func (f *lstmForecaster) Predict(horizon int) []float64 {
	validHorizon(horizon)
	if len(f.memo) != horizon {
		f.memo = f.predict(horizon)
	}
	return append([]float64(nil), f.memo...)
}

func (f *lstmForecaster) predict(horizon int) []float64 {
	switch {
	case f.cfg.Role == RoleInterArrival && f.iat != nil:
		return rollForward(f.tail(f.iat.SeqLen+horizon), horizon, func(h []Observation) float64 {
			return f.iat.PredictIAT(f.split(h))
		})
	case f.cfg.Role == RoleCount && f.inv != nil:
		return rollForward(f.tail(f.inv.SeqLen+horizon), horizon, func(h []Observation) float64 {
			vals, _ := f.split(h)
			return f.inv.Predict(vals)
		})
	default:
		return persistence(f.hist, horizon)
	}
}

// split copies h's values and covariates into the forecaster's scratch.
func (f *lstmForecaster) split(h []Observation) (vals, covs []float64) {
	f.valBuf, f.covBuf = f.valBuf[:0], f.covBuf[:0]
	for _, o := range h {
		f.valBuf = append(f.valBuf, o.Value)
		f.covBuf = append(f.covBuf, o.Cov)
	}
	return f.valBuf, f.covBuf
}

// PredictUpper implements UpperBounder for the count role: the bucket
// classifier's point forecast is already the compensated bucket upper
// bound. The inter-arrival regressor trains with an asymmetric
// over-estimation penalty, so its point forecast is a deliberately
// conservative-from-below estimate; it is returned unchanged.
func (f *lstmForecaster) PredictUpper(horizon int) []float64 {
	return f.Predict(horizon)
}

func (f *lstmForecaster) Update(obs Observation) {
	f.append(obs)
	f.fresh++
	f.memo = nil
}

func (f *lstmForecaster) Clone(seed int64) Forecaster {
	cfg := f.cfg
	cfg.Seed = seed
	return &lstmForecaster{cfg: cfg}
}

// arimaForecaster wraps the AR(8) least-squares baseline (Fig. 12's ARIMA
// order). It is seedless — the fit is closed-form — so clones differ only
// in their recorded seed.
type arimaForecaster struct {
	series
	cfg Config
	ar  *predictor.ARIMA
}

func (f *arimaForecaster) Name() string { return "arima" }

func (f *arimaForecaster) Fit(hist []Observation) error {
	a := predictor.NewARIMA(8, 0)
	if len(hist)-a.D <= a.P+1 {
		return ErrShortSeries
	}
	f.replace(hist)
	a.Fit(f.values())
	f.ar = a
	return nil
}

func (f *arimaForecaster) Predict(horizon int) []float64 {
	validHorizon(horizon)
	if f.ar == nil {
		return persistence(f.hist, horizon)
	}
	// AR(P) on the D-times differenced series reads the last P+D values.
	return rollForward(f.tail(f.ar.P+f.ar.D+horizon), horizon, func(h []Observation) float64 {
		s := series{hist: h}
		return f.ar.Predict(s.values())
	})
}

func (f *arimaForecaster) Update(obs Observation) { f.append(obs) }

func (f *arimaForecaster) Clone(seed int64) Forecaster {
	cfg := f.cfg
	cfg.Seed = seed
	return &arimaForecaster{cfg: cfg}
}

// fipForecaster wraps IceBreaker's training-free Fourier predictor: the
// spectrum is refit from the trailing window on every prediction, so Fit
// only installs the history.
type fipForecaster struct {
	series
	cfg    Config
	fip    *predictor.FIP
	fitted bool
}

func (f *fipForecaster) Name() string { return "fip" }

func (f *fipForecaster) Fit(hist []Observation) error {
	if len(hist) < 2 {
		return ErrShortSeries
	}
	f.replace(hist)
	f.fitted = true
	return nil
}

func (f *fipForecaster) Predict(horizon int) []float64 {
	validHorizon(horizon)
	if !f.fitted {
		return persistence(f.hist, horizon)
	}
	return rollForward(f.hist, horizon, func(h []Observation) float64 {
		s := series{hist: h}
		return f.fip.Predict(s.values())
	})
}

func (f *fipForecaster) Update(obs Observation) { f.append(obs) }

func (f *fipForecaster) Clone(seed int64) Forecaster {
	cfg := f.cfg
	cfg.Seed = seed
	return &fipForecaster{cfg: cfg, fip: predictor.NewFIP()}
}

// gbtForecaster wraps the gradient-boosted stump model (the XGBoost
// stand-in) over lag features.
type gbtForecaster struct {
	series
	cfg Config
	gbt *predictor.GBT
}

func (f *gbtForecaster) Name() string { return "gbt" }

func (f *gbtForecaster) Fit(hist []Observation) error {
	g := predictor.NewGBT()
	if len(hist) <= g.Lags+1 {
		return ErrShortSeries
	}
	f.replace(hist)
	g.Fit(f.values())
	f.gbt = g
	return nil
}

func (f *gbtForecaster) Predict(horizon int) []float64 {
	validHorizon(horizon)
	if f.gbt == nil {
		return persistence(f.hist, horizon)
	}
	return rollForward(f.tail(f.gbt.Lags+horizon), horizon, func(h []Observation) float64 {
		s := series{hist: h}
		return f.gbt.Predict(s.values())
	})
}

func (f *gbtForecaster) Update(obs Observation) { f.append(obs) }

func (f *gbtForecaster) Clone(seed int64) Forecaster {
	cfg := f.cfg
	cfg.Seed = seed
	return &gbtForecaster{cfg: cfg}
}

// histogramForecaster wraps the ATC'20 hybrid-histogram distribution
// tracker: observations stream into fixed-width bins and forecasts are
// distribution quantiles — the median as the point forecast, the policy's
// high quantile (with its margin) as the upper bound. Without enough
// in-bounds signal it falls back to persistence, as the policy itself
// falls back to plain keep-alive.
type histogramForecaster struct {
	series
	cfg Config
	h   *predictor.IdleHistogram
}

func newHistogramForecaster(cfg Config) *histogramForecaster {
	return &histogramForecaster{cfg: cfg, h: predictor.NewIdleHistogram()}
}

func (f *histogramForecaster) Name() string { return "histogram" }

func (f *histogramForecaster) Fit(hist []Observation) error {
	if len(hist) < 2 {
		return ErrShortSeries
	}
	f.replace(hist)
	f.h = predictor.NewIdleHistogram()
	for _, o := range f.hist {
		f.h.Observe(o.Value)
	}
	return nil
}

func (f *histogramForecaster) forecastQuantile(q float64) (float64, bool) {
	if !f.h.Usable() {
		return 0, false
	}
	return f.h.Quantile(q), true
}

func (f *histogramForecaster) Predict(horizon int) []float64 {
	validHorizon(horizon)
	v, ok := f.forecastQuantile(0.5)
	if !ok {
		return persistence(f.hist, horizon)
	}
	out := make([]float64, horizon)
	for i := range out {
		out[i] = v
	}
	return out
}

// PredictUpper implements UpperBounder: the policy's high quantile widened
// by its margin, the upper edge of the ATC'20 warm window.
func (f *histogramForecaster) PredictUpper(horizon int) []float64 {
	validHorizon(horizon)
	v, ok := f.forecastQuantile(f.h.HighQuantile)
	if !ok {
		return persistence(f.hist, horizon)
	}
	v *= 1 + f.h.Margin
	out := make([]float64, horizon)
	for i := range out {
		out[i] = v
	}
	return out
}

// Update appends and streams the observation into the live histogram, so
// the distribution sharpens online without refits.
func (f *histogramForecaster) Update(obs Observation) {
	f.append(obs)
	f.h.Observe(obs.Value)
}

func (f *histogramForecaster) Clone(seed int64) Forecaster {
	cfg := f.cfg
	cfg.Seed = seed
	return newHistogramForecaster(cfg)
}

// naiveForecaster is the persistence baseline: predict the last observed
// value. It anchors the sweep — any trained family should beat it on
// structured traces, and on adversarial regime switches it shows how much
// signal survives.
type naiveForecaster struct {
	series
	cfg Config
}

func (f *naiveForecaster) Name() string { return "naive" }

func (f *naiveForecaster) Fit(hist []Observation) error {
	if len(hist) < 1 {
		return ErrShortSeries
	}
	f.replace(hist)
	return nil
}

func (f *naiveForecaster) Predict(horizon int) []float64 {
	validHorizon(horizon)
	return persistence(f.hist, horizon)
}

func (f *naiveForecaster) predictInto(dst []float64) { persistenceInto(dst, f.hist) }

func (f *naiveForecaster) Update(obs Observation) { f.append(obs) }

func (f *naiveForecaster) Clone(seed int64) Forecaster {
	cfg := f.cfg
	cfg.Seed = seed
	return &naiveForecaster{cfg: cfg}
}
