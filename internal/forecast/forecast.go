// Package forecast is the forecasting layer behind the SMIless Online
// Predictor (§IV-B): a Forecaster interface with a name-keyed registry, the
// model families that implement it — the paper's LSTM pair (bucket
// classifier for counts, dual-input inter-arrival regressor, on the
// from-scratch LSTM/Dense/Adam kernel), the Fig. 12 baselines ARIMA, FIP and
// GBT, the ATC'20 hybrid histogram, an attention ("transformer") model and
// persistence — and an Online wrapper that adds drift-triggered refitting
// plus a prediction-quality harness (per-horizon MAE/sMAPE, upper-bound
// violation rate, refit counts).
//
// Both serving substrates — the simulator controller's window loop and the
// live serving runtime — consume only the interface, so predictor choice is
// a reported experiment dimension (experiments.PredictorSweep) rather than
// a hard-wired struct.
//
// Everything here is deterministic: a forecaster's outputs are a pure
// function of its Config (seed, role, budget) and the sequence of Fit and
// Update calls it received. Clone produces an untrained instance with the same
// hyperparameters, so per-function or per-trace instances are reproducible
// by construction.
//
//lint:deterministic
package forecast

import (
	"errors"
	"fmt"
)

// Role selects which series of the Online Predictor a forecaster instance
// serves. The LSTM family dispatches to a different concrete architecture
// per role (bucket classifier for counts, dual-input regressor for
// inter-arrival times); univariate families ignore it.
type Role int

const (
	// RoleCount forecasts per-window invocation counts.
	RoleCount Role = iota
	// RoleInterArrival forecasts window-level inter-arrival gaps, with the
	// aligned invocation count available as a covariate (Observation.Cov).
	RoleInterArrival
)

// String names the role for diagnostics and experiment output.
func (r Role) String() string {
	if r == RoleInterArrival {
		return "interarrival"
	}
	return "count"
}

// Budget selects a training-cost profile. Families that train iteratively
// (the LSTM pair) run fewer epochs under BudgetOnline — the exact epoch
// counts the controller's window loop historically used — while
// BudgetOffline keeps the paper-faithful defaults used by the Fig. 12
// study and cmd/predict. Training-free families ignore it.
type Budget int

const (
	// BudgetOffline trains at full fidelity.
	BudgetOffline Budget = iota
	// BudgetOnline trains cheaply enough for periodic in-loop refits.
	BudgetOnline
)

// Observation is one step of a forecast series: the target value plus an
// aligned covariate. For RoleInterArrival the value is the gap after one
// window-level arrival event and Cov is the invocation count of the window
// containing it; for RoleCount the value is the per-window count and Cov is
// unused.
type Observation struct {
	Value float64
	Cov   float64
}

// Obs builds an Observation slice from aligned value/covariate series; cov
// may be nil for univariate series.
func Obs(values, cov []float64) []Observation {
	out := make([]Observation, len(values))
	for i, v := range values {
		out[i].Value = v
		if cov != nil && i < len(cov) {
			out[i].Cov = cov[i]
		}
	}
	return out
}

// Config parameterizes one forecaster instance.
type Config struct {
	// Seed drives any stochastic initialization (LSTM weights). Two
	// instances of the same family with the same Config produce bitwise
	// identical outputs on the same observation sequence.
	Seed int64
	// Role selects the series the instance serves.
	Role Role
	// Budget selects the training-cost profile.
	Budget Budget
}

// Constructor builds a forecaster instance; registered per family name.
type Constructor func(cfg Config) Forecaster

// ErrShortSeries is returned by Fit when the history is too short to train
// on; the forecaster stays in (or falls back to) its untrained persistence
// behaviour and a later, longer Fit can still succeed.
var ErrShortSeries = errors.New("forecast: series too short to fit")

// Forecaster is one forecasting model over a univariate series with an
// optional covariate. Implementations keep the history they were fitted on
// (plus later Update appends) internally, so Predict needs only a horizon.
type Forecaster interface {
	// Name identifies the forecaster family in experiment output.
	Name() string
	// Fit replaces the history with hist (oldest first) and trains on it.
	// The first successful Fit trains from the Config's seed; a later one
	// may continue from the fitted state instead of starting over, taking
	// the observations Updated since the last successful Fit to be hist's
	// last ones (the LSTM family does; the closed-form families refit
	// whole). Either way the result is a pure function of the Config and
	// the Fit/Update calls so far. It returns ErrShortSeries when hist
	// cannot support training; other errors are family-specific. After an
	// error the previous state — model and history — is retained. Fit
	// does not retain hist: callers may reuse its array once Fit returns.
	Fit(hist []Observation) error
	// Predict forecasts the next horizon steps after the last observation
	// seen (Fit history plus Updates), index 0 being one step ahead.
	// Untrained instances fall back to persistence (repeat the last value,
	// clamped non-negative; zero with no history). horizon must be >= 1.
	Predict(horizon int) []float64
	// Update appends one observation for online tracking. It never
	// retrains by itself — pair with Online for drift-triggered refits.
	Update(obs Observation)
	// Clone returns a fresh untrained instance with the same
	// hyperparameters and role, re-seeded for reproducible per-function or
	// per-trace instances.
	Clone(seed int64) Forecaster
}

// UpperBounder is an optional capability: forecasters whose predictions
// carry a calibrated conservative upper bound (the invocation-count
// classifier predicts bucket upper bounds by construction; the attention
// and histogram families derive one from residual or distribution
// quantiles). Families without it have their point forecast treated as the
// upper bound by the quality harness.
type UpperBounder interface {
	// PredictUpper returns conservative upper bounds for the next horizon
	// steps, aligned with Predict.
	PredictUpper(horizon int) []float64
}

// maxHistory bounds the history a family keeps. Every family
// reads at most a bounded tail (LSTM windows, GBT lags, FIP's 512-wide
// spectrum, attention's key set), so trimming beyond this cannot change
// predictions while keeping long-running instances at constant memory.
const maxHistory = 8192

// DeriveSeed maps a base seed and an instance tag (role, function name,
// trace label) to a decorrelated child seed via FNV-1a, so per-instance
// clones are reproducible without manual seed bookkeeping.
func DeriveSeed(base int64, tag string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		mix(byte(uint64(base) >> (8 * i)))
	}
	for i := 0; i < len(tag); i++ {
		mix(tag[i])
	}
	return int64(h)
}

// intoPredictor is implemented by families that can write a forecast into
// a caller's buffer: Predict(len(dst)) without the allocation. Online uses
// it when present.
type intoPredictor interface {
	predictInto(dst []float64)
}

// persistence is the shared untrained fallback: the last observed value
// clamped non-negative, or zero with no history, repeated across the
// horizon.
func persistence(hist []Observation, horizon int) []float64 {
	out := make([]float64, horizon)
	persistenceInto(out, hist)
	return out
}

// persistenceInto is persistence written into dst.
func persistenceInto(dst []float64, hist []Observation) {
	v := 0.0
	if n := len(hist); n > 0 && hist[n-1].Value > 0 {
		v = hist[n-1].Value
	}
	for i := range dst {
		dst[i] = v
	}
}

// series is the history every family keeps, embedded in each.
type series struct {
	hist []Observation
}

func (s *series) append(obs Observation) {
	s.hist = append(s.hist, obs)
	if len(s.hist) > maxHistory {
		// Copy the tail down so the backing array does not grow unbounded.
		n := copy(s.hist, s.hist[len(s.hist)-maxHistory:])
		s.hist = s.hist[:n]
	}
}

func (s *series) replace(hist []Observation) {
	if len(hist) > maxHistory {
		hist = hist[len(hist)-maxHistory:]
	}
	// Into the array already held when it is large enough: a refit of a
	// training-free family is then a memmove, not an allocation. append
	// copies as memmove does, so hist may be a view of s.hist itself.
	s.hist = append(s.hist[:0], hist...)
}

// tail returns the last n observations (all of them when there are fewer):
// what a family whose model reads a bounded window hands to rollForward, so
// a forecast costs the same at every history length.
func (s *series) tail(n int) []Observation {
	if len(s.hist) > n {
		return s.hist[len(s.hist)-n:]
	}
	return s.hist
}

// column returns a copy of the history's values, or with cov its covariates.
func (s *series) column(cov bool) []float64 {
	out := make([]float64, len(s.hist))
	for i, o := range s.hist {
		out[i] = o.Value
		if cov {
			out[i] = o.Cov
		}
	}
	return out
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

// validHorizon panics on a non-positive horizon: it is a programming error,
// not a data condition.
func validHorizon(h int) {
	if h < 1 {
		panic(fmt.Sprintf("forecast: non-positive horizon %d", h))
	}
}
