package forecast

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// smapeEps keeps the symmetric-error denominator away from zero when both
// forecast and outcome are ~zero (a perfect prediction, scored as 0).
const smapeEps = 1e-9

// smapeTerm is one symmetric-error sample in [0, 1]:
// |pred-actual| / (|pred|+|actual|).
func smapeTerm(pred, actual float64) float64 {
	denom := math.Abs(pred) + math.Abs(actual)
	if denom < smapeEps {
		return 0
	}
	return math.Abs(pred-actual) / denom
}

// Drift is a Page-Hinkley change detector over a bounded error stream: it
// accumulates deviations of each sample from the running mean (minus a
// tolerance Delta) and trips when the cumulative sum rises Lambda above its
// historical minimum — i.e. when errors have been consistently worse than
// their own past for a while, not merely noisy. Inputs are expected in
// [0, 1] (sMAPE terms), which makes the default thresholds portable across
// series scales.
type Drift struct {
	// Delta is the per-sample tolerance; deviations below it never
	// accumulate. Zero value means DefaultDriftDelta.
	Delta float64
	// Lambda is the trip threshold on the cumulative deviation. Zero value
	// means DefaultDriftLambda.
	Lambda float64
	// MinSamples is the burn-in before the detector may trip: the running
	// mean needs a baseline to deviate from. Zero value means
	// DefaultDriftMinSamples.
	MinSamples int
	// TripMean is the absolute alarm floor: once past burn-in, a running
	// mean error above it AND above the pre-reset baseline (scaled by
	// driftEscalation) trips regardless of Page-Hinkley. PH detects error
	// *shifts*; this catches the complementary failure where errors are
	// persistently high from the moment of the last reset (e.g. a refit
	// that did not help), which PH by construction normalizes into its
	// baseline. The baseline comparison keeps endemically hard series
	// (bursty counts live near sMAPE 0.9 for every family) from
	// re-tripping the alarm forever: only doing worse than *before* the
	// last reset escalates. Zero value means DefaultDriftTripMean;
	// negative disables the alarm.
	TripMean float64

	n        float64
	mean     float64
	prevMean float64
	cum      float64
	minCum   float64
	tripped  bool
}

// driftEscalation scales the pre-reset error baseline for the absolute
// alarm: the current mean must exceed it by 25% before the alarm may trip
// again, so a refit that merely fails to improve an already-hard series
// does not loop.
const driftEscalation = 1.25

// Default Page-Hinkley thresholds, tuned for sMAPE-term inputs: with
// Delta 0.05 and Lambda 3, errors must run ~0.15 above the series' own
// baseline for ~30 consecutive windows (or deviate harder for fewer) to
// trip — ordinary noise around a stable error level does not.
const (
	DefaultDriftDelta      = 0.05
	DefaultDriftLambda     = 3
	DefaultDriftMinSamples = 32
	// DefaultDriftTripMean sits above the one-step sMAPE any usable model
	// reaches on the evaluation workloads (~0.3-0.55 even on bursty count
	// series), so only a model that is genuinely mispredicting — off by
	// ~5x on a typical step — keeps re-tripping the alarm.
	DefaultDriftTripMean = 0.65
)

// Observe feeds one error sample. Once tripped, the detector stays tripped
// until Reset.
func (d *Drift) Observe(err float64) {
	delta, lambda := d.Delta, d.Lambda
	if delta <= 0 {
		delta = DefaultDriftDelta
	}
	if lambda <= 0 {
		lambda = DefaultDriftLambda
	}
	min := d.MinSamples
	if min <= 0 {
		min = DefaultDriftMinSamples
	}
	tripMean := d.TripMean
	if tripMean == 0 { //lint:allow floateq zero value selects the default
		tripMean = DefaultDriftTripMean
	}
	d.n++
	d.mean += (err - d.mean) / d.n
	d.cum += err - d.mean - delta
	if d.cum < d.minCum {
		d.minCum = d.cum
	}
	if d.n < float64(min) {
		return
	}
	if d.cum-d.minCum > lambda {
		d.tripped = true
	}
	if tripMean > 0 && d.mean > tripMean && d.mean > d.prevMean*driftEscalation {
		d.tripped = true
	}
}

// Drifted reports whether the detector has tripped since the last Reset.
func (d *Drift) Drifted() bool { return d.tripped }

// Reset clears the detector state; call after acting on a drift (refit).
// The completed run's mean error is kept as the absolute alarm's baseline,
// so only errors materially worse than before the reset can re-trip it.
// The first fit is preceded by no run, so after it the alarm has no baseline
// and a series whose errors stay above TripMean trips it again MinSamples
// later, once: every hard series pays a second fit that soon after its first.
func (d *Drift) Reset() {
	if d.n > 0 {
		d.prevMean = d.mean
	}
	d.n, d.mean, d.cum, d.minCum, d.tripped = 0, 0, 0, 0, false
}

// pending is one registered forecast awaiting outcomes: preds[age] is
// scored against the next observation.
type pending struct {
	preds []float64
	upper []float64
	age   int
}

// Online wraps a Forecaster with the runtime concerns both serving
// substrates need: walk-forward quality accounting (per-horizon MAE and
// sMAPE, upper-bound violation rate), Page-Hinkley drift detection on
// one-step errors, and refit bookkeeping. The wrapped forecaster is
// consumed strictly through the interface.
//
// Protocol per step: Forecast (and optionally ForecastUpper), then
// Observe(outcome). Forecast registers at most one pending forecast per
// observed step, so calling it repeatedly between observations cannot
// double-count quality samples.
type Online struct {
	f       Forecaster
	horizon int
	drift   Drift
	refits  int
	drifts  int
	armed   bool
	queue   []pending
	// into is f's buffer-filling predictor, when its family has one; then
	// every forecast and upper bound lands in a buffer Online owns, and
	// spare holds the buffers no pending forecast uses.
	into  intoPredictor
	spare [][]float64

	// Per-horizon accumulators, indexed 0..horizon-1.
	absErr  []float64
	smapeS  []float64
	samples []int64
	// Upper-bound accounting across all scored horizons.
	upperViol int64
	upperN    int64
}

// NewOnline wraps f, scoring forecasts out to horizon steps (min 1).
func NewOnline(f Forecaster, horizon int) *Online {
	if horizon < 1 {
		horizon = 1
	}
	into, _ := f.(intoPredictor)
	return &Online{
		f:       f,
		horizon: horizon,
		armed:   true,
		into:    into,
		absErr:  make([]float64, horizon),
		smapeS:  make([]float64, horizon),
		samples: make([]int64, horizon),
	}
}

// Forecaster returns the wrapped forecaster.
func (o *Online) Forecaster() Forecaster { return o.f }

// Horizon returns the scored horizon.
func (o *Online) Horizon() int { return o.horizon }

// Forecast predicts the next horizon steps and registers the forecast for
// quality scoring (point and, when the family supports it, upper bound).
// Only the first call after each Observe registers; later calls re-predict
// without double-counting. For a family that predicts into a buffer (the
// naive baseline and the LSTM pair) the returned slice and the registered
// upper bound are Online's own, recycled once scored, so a window that does
// not refit forecasts without allocating: read the slice before the next
// Forecast or Observe, and copy what must outlive that.
func (o *Online) Forecast() []float64 {
	ub, _ := o.f.(UpperBounder)
	var preds, upper []float64
	if o.into != nil {
		preds = o.buffer()
		if o.armed && ub != nil {
			upper = o.buffer()
		}
		o.into.predictInto(preds, upper)
	} else {
		preds = o.f.Predict(o.horizon)
		if o.armed && ub != nil {
			upper = ub.PredictUpper(o.horizon)
		}
	}
	if !o.armed {
		if o.into != nil {
			o.spare = append(o.spare, preds) // registers nothing: spare again at once
		}
		return preds
	}
	o.queue = append(o.queue, pending{preds: preds, upper: upper})
	o.armed = false
	return preds
}

// buffer returns a horizon-long forecast buffer, recycled when one is
// spare.
func (o *Online) buffer() []float64 {
	if n := len(o.spare); n > 0 {
		b := o.spare[n-1]
		o.spare = o.spare[:n-1]
		return b
	}
	return make([]float64, o.horizon)
}

// sized returns s with length n, reusing its array when large enough.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ForecastUpper returns conservative upper bounds aligned with Forecast,
// falling back to the point forecast for families without the capability.
func (o *Online) ForecastUpper() []float64 {
	if ub, ok := o.f.(UpperBounder); ok {
		return ub.PredictUpper(o.horizon)
	}
	return o.f.Predict(o.horizon)
}

// Observe scores obs against every in-flight forecast at its current age,
// feeds the one-step error to the drift detector, then forwards the
// observation to the wrapped forecaster's Update.
func (o *Online) Observe(obs Observation) {
	live := o.queue[:0]
	for i := range o.queue {
		p := &o.queue[i]
		if p.age < len(p.preds) && p.age < o.horizon {
			pred := p.preds[p.age]
			o.absErr[p.age] += math.Abs(pred - obs.Value)
			s := smapeTerm(pred, obs.Value)
			o.smapeS[p.age] += s
			o.samples[p.age]++
			if p.age == 0 {
				o.drift.Observe(s)
			}
			if p.upper != nil {
				o.upperN++
				if obs.Value > p.upper[p.age] {
					o.upperViol++
				}
			}
		}
		p.age++
		if p.age < len(p.preds) {
			live = append(live, *p)
		} else if o.into != nil {
			o.spare = append(o.spare, p.preds)
			if p.upper != nil {
				o.spare = append(o.spare, p.upper)
			}
		}
	}
	o.queue = live
	o.armed = true
	o.f.Update(obs)
}

// Drifted reports whether one-step errors have drifted since the last
// successful Refit.
func (o *Online) Drifted() bool { return o.drift.Drifted() }

// Refit retrains the wrapped forecaster on hist. On success it counts the
// refit, notes whether drift forced it, and resets the drift detector;
// on error (e.g. ErrShortSeries) all state is left untouched.
func (o *Online) Refit(hist []Observation) error {
	if err := o.f.Fit(hist); err != nil {
		return err
	}
	o.refits++
	if o.drift.Drifted() {
		o.drifts++
	}
	o.drift.Reset()
	return nil
}

// Refits returns the number of successful refits.
func (o *Online) Refits() int { return o.refits }

// QualityReport is the accumulated prediction-quality summary for one
// forecaster instance: per-horizon errors (index 0 = one step ahead), the
// upper-bound violation rate, and refit/drift counts.
type QualityReport struct {
	Forecaster string    `json:"forecaster"`
	Horizon    int       `json:"horizon"`
	MAE        []float64 `json:"mae"`
	SMAPE      []float64 `json:"smape"`
	Samples    []int64   `json:"samples"`
	// UpperViolationRate is the fraction of scored steps whose outcome
	// exceeded the forecast upper bound (0 when the family provides none).
	UpperViolationRate float64 `json:"upper_violation_rate"`
	UpperSamples       int64   `json:"upper_samples"`
	Refits             int     `json:"refits"`
	// DriftRefits counts refits that were forced by the drift detector.
	DriftRefits int `json:"drift_refits"`
}

// Clone deep-copies the report, so a copy taken while its Online keeps
// reporting into the original stays put.
func (r QualityReport) Clone() QualityReport {
	r.MAE = slices.Clone(r.MAE)
	r.SMAPE = slices.Clone(r.SMAPE)
	r.Samples = slices.Clone(r.Samples)
	return r
}

// OneStepMAE is the mean absolute one-step-ahead error (0 with no samples).
func (r QualityReport) OneStepMAE() float64 {
	if len(r.MAE) == 0 {
		return 0
	}
	return r.MAE[0]
}

// OneStepSMAPE is the mean symmetric one-step error in [0, 1].
func (r QualityReport) OneStepSMAPE() float64 {
	if len(r.SMAPE) == 0 {
		return 0
	}
	return r.SMAPE[0]
}

// String renders a compact single-line summary for logs and tables.
func (r QualityReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: mae1=%.4f smape1=%.4f", r.Forecaster, r.OneStepMAE(), r.OneStepSMAPE())
	if len(r.MAE) > 1 {
		last := len(r.MAE) - 1
		fmt.Fprintf(&b, " mae%d=%.4f smape%d=%.4f", last+1, r.MAE[last], last+1, r.SMAPE[last])
	}
	fmt.Fprintf(&b, " upper_viol=%.4f refits=%d drift_refits=%d",
		r.UpperViolationRate, r.Refits, r.DriftRefits)
	return b.String()
}

// Report snapshots the accumulated quality statistics.
func (o *Online) Report() QualityReport {
	var r QualityReport
	o.ReportInto(&r)
	return r
}

// ReportInto writes the accumulated quality statistics into r, reusing r's
// per-horizon slices when they are long enough, so a window loop can keep
// one report current without allocating. Whoever hands r out while this
// Online keeps running must copy its slices.
func (o *Online) ReportInto(r *QualityReport) {
	r.Forecaster = o.f.Name()
	r.Horizon = o.horizon
	r.MAE = sized(r.MAE, o.horizon)
	r.SMAPE = sized(r.SMAPE, o.horizon)
	r.Samples = append(r.Samples[:0], o.samples...)
	for h := 0; h < o.horizon; h++ {
		r.MAE[h], r.SMAPE[h] = 0, 0
		if o.samples[h] > 0 {
			n := float64(o.samples[h])
			r.MAE[h] = o.absErr[h] / n
			r.SMAPE[h] = o.smapeS[h] / n
		}
	}
	r.UpperViolationRate = 0
	if o.upperN > 0 {
		r.UpperViolationRate = float64(o.upperViol) / float64(o.upperN)
	}
	r.UpperSamples = o.upperN
	r.Refits = o.refits
	r.DriftRefits = o.drifts
}

// EvalOpts parameterizes EvaluateSeries.
type EvalOpts struct {
	// Horizon is the number of steps scored per forecast (default 4).
	Horizon int
	// Warmup is the prefix length of the initial Fit (default max(64, n/4)).
	Warmup int
	// RefitEvery retrains every k observed steps in addition to
	// drift-forced refits; 0 means drift-only.
	RefitEvery int
}

// EvaluateSeries runs the walk-forward quality harness for one registered
// forecaster family over a series: fit on the warmup prefix, then forecast
// and observe step by step, refitting on schedule or drift. This is the
// offline counterpart of the controller's window loop and the engine under
// experiments.PredictorSweep and cmd/predict.
func EvaluateSeries(name string, cfg Config, hist []Observation, opts EvalOpts) (QualityReport, error) {
	f, err := New(name, cfg)
	if err != nil {
		return QualityReport{}, err
	}
	return evaluate(f, hist, opts)
}

// evaluate is EvaluateSeries on a forecaster instance.
func evaluate(f Forecaster, hist []Observation, opts EvalOpts) (QualityReport, error) {
	horizon := opts.Horizon
	if horizon < 1 {
		horizon = 4
	}
	warmup := opts.Warmup
	if warmup <= 0 {
		warmup = len(hist) / 4
		if warmup < 64 {
			warmup = 64
		}
	}
	if warmup >= len(hist) {
		return QualityReport{}, ErrShortSeries
	}
	on := NewOnline(f, horizon)
	// An ErrShortSeries warmup fit is tolerable — the family persists until
	// a later refit sees enough history; any other error is terminal.
	if err := on.Refit(hist[:warmup]); err != nil && err != ErrShortSeries {
		return QualityReport{}, err
	}
	sinceRefit := 0
	for t := warmup; t < len(hist); t++ {
		on.Forecast()
		on.Observe(hist[t])
		sinceRefit++
		due := opts.RefitEvery > 0 && sinceRefit >= opts.RefitEvery
		if due || on.Drifted() {
			if err := on.Refit(hist[:t+1]); err != nil && err != ErrShortSeries {
				return QualityReport{}, err
			}
			sinceRefit = 0
		}
	}
	return on.Report(), nil
}
