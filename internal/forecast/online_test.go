package forecast

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// fixedForecaster is a test double with scripted point and upper forecasts.
type fixedForecaster struct {
	preds []float64
	upper []float64
	fits  int
}

func (f *fixedForecaster) Name() string { return "fixed" }
func (f *fixedForecaster) Fit(hist []Observation) error {
	f.fits++
	return nil
}
func (f *fixedForecaster) Predict(horizon int) []float64 {
	validHorizon(horizon)
	out := make([]float64, horizon)
	copy(out, f.preds)
	return out
}
func (f *fixedForecaster) PredictUpper(horizon int) []float64 {
	validHorizon(horizon)
	out := make([]float64, horizon)
	copy(out, f.upper)
	return out
}
func (f *fixedForecaster) Update(obs Observation) {}
func (f *fixedForecaster) Clone(seed int64) Forecaster {
	return &fixedForecaster{preds: f.preds, upper: f.upper}
}

func TestDriftBurnInAndTrip(t *testing.T) {
	var d Drift
	// Below MinSamples even egregious errors must not trip.
	for i := 0; i < DefaultDriftMinSamples-1; i++ {
		d.Observe(0.9)
	}
	if d.Drifted() {
		t.Fatal("drift tripped during burn-in")
	}
	// A stable error level never trips: the running mean absorbs it.
	d.Reset()
	for i := 0; i < 500; i++ {
		d.Observe(0.10)
	}
	if d.Drifted() {
		t.Fatal("drift tripped on a stable error level")
	}
	// A sustained step up from that baseline trips.
	for i := 0; i < 200 && !d.Drifted(); i++ {
		d.Observe(0.85)
	}
	if !d.Drifted() {
		t.Fatal("drift did not trip on a sustained error step")
	}
	d.Reset()
	if d.Drifted() {
		t.Fatal("Reset did not clear the trip")
	}
}

func TestDriftAbsoluteAlarm(t *testing.T) {
	// Constant-high error from the very first sample: Page-Hinkley adopts
	// it as its baseline and never trips, so the absolute alarm must.
	var d Drift
	for i := 0; i < DefaultDriftMinSamples+1; i++ {
		d.Observe(0.75)
	}
	if !d.Drifted() {
		t.Error("absolute alarm did not trip on persistently high error")
	}
	// A constant moderate error stays below the alarm.
	d.Reset()
	for i := 0; i < 500; i++ {
		d.Observe(0.4)
	}
	if d.Drifted() {
		t.Error("absolute alarm tripped on a tolerable stable error")
	}
	// Endemically hard series: after a reset the alarm remembers the
	// pre-reset error baseline, so the same high-but-unchanged error level
	// does not re-trip forever — only doing materially worse escalates.
	hard := Drift{}
	for i := 0; i < DefaultDriftMinSamples+1; i++ {
		hard.Observe(0.9)
	}
	if !hard.Drifted() {
		t.Fatal("first encounter with a high error level should trip")
	}
	hard.Reset()
	for i := 0; i < 500; i++ {
		hard.Observe(0.9)
	}
	if hard.Drifted() {
		t.Error("unchanged endemic error level re-tripped the absolute alarm")
	}
	// Negative TripMean disables the alarm entirely.
	neg := Drift{TripMean: -1}
	for i := 0; i < 500; i++ {
		neg.Observe(0.75)
	}
	if neg.Drifted() {
		t.Error("disabled absolute alarm tripped")
	}
}

func TestOnlineNoDoubleCounting(t *testing.T) {
	f := &fixedForecaster{preds: []float64{5, 5}, upper: []float64{6, 6}}
	on := NewOnline(f, 2)
	on.Forecast()
	on.Forecast() // re-predict between observations: must not re-register
	on.ForecastUpper()
	on.Observe(Observation{Value: 5})
	rep := on.Report()
	if rep.Samples[0] != 1 {
		t.Errorf("one-step samples = %d, want 1", rep.Samples[0])
	}
	if rep.Samples[1] != 0 {
		t.Errorf("two-step samples = %d before the second outcome", rep.Samples[1])
	}
	on.Forecast()
	on.Observe(Observation{Value: 5})
	rep = on.Report()
	if rep.Samples[0] != 2 || rep.Samples[1] != 1 {
		t.Errorf("samples = %v, want [2 1]", rep.Samples)
	}
}

func TestOnlineQualityAccounting(t *testing.T) {
	f := &fixedForecaster{preds: []float64{10}, upper: []float64{12}}
	on := NewOnline(f, 1)
	// Outcome 14: |err| 4, above the upper bound of 12.
	on.Forecast()
	on.Observe(Observation{Value: 14})
	// Outcome 10: exact, inside the bound.
	on.Forecast()
	on.Observe(Observation{Value: 10})
	rep := on.Report()
	if want := 2.0; math.Abs(rep.OneStepMAE()-want) > 1e-12 {
		t.Errorf("MAE = %v, want %v", rep.OneStepMAE(), want)
	}
	if want := 0.5; math.Abs(rep.UpperViolationRate-want) > 1e-12 {
		t.Errorf("upper violation rate = %v, want %v", rep.UpperViolationRate, want)
	}
	if rep.UpperSamples != 2 {
		t.Errorf("upper samples = %d, want 2", rep.UpperSamples)
	}
	s := rep.String()
	if s == "" || rep.Forecaster != "fixed" {
		t.Errorf("report summary malformed: %q %q", s, rep.Forecaster)
	}
}

func TestOnlineRefitBookkeeping(t *testing.T) {
	f := &fixedForecaster{preds: []float64{0}}
	on := NewOnline(f, 1)
	if err := on.Refit(nil); err != nil {
		t.Fatalf("Refit: %v", err)
	}
	if on.Refits() != 1 || f.fits != 1 {
		t.Errorf("refits = %d/%d, want 1/1", on.Refits(), f.fits)
	}
	// Force a drift, then refit: the drift counter moves and the detector
	// resets.
	for i := 0; i < 200; i++ {
		on.Forecast()
		on.Observe(Observation{Value: 0})
	}
	for i := 0; i < 200 && !on.Drifted(); i++ {
		on.Forecast()
		on.Observe(Observation{Value: 50})
	}
	if !on.Drifted() {
		t.Fatal("drift never tripped on a persistent mispredict")
	}
	if err := on.Refit(nil); err != nil {
		t.Fatalf("Refit: %v", err)
	}
	rep := on.Report()
	if rep.DriftRefits != 1 {
		t.Errorf("drift refits = %d, want 1", rep.DriftRefits)
	}
	if on.Drifted() {
		t.Error("successful Refit should reset the drift detector")
	}
}

func TestOnlineRefitErrorLeavesState(t *testing.T) {
	f := MustNew("lstm", Config{Seed: 1, Role: RoleCount})
	on := NewOnline(f, 1)
	if err := on.Refit(counts(5)); err != ErrShortSeries {
		t.Fatalf("Refit on short series err = %v", err)
	}
	if on.Refits() != 0 {
		t.Errorf("failed refit was counted: %d", on.Refits())
	}
}

// driftingSeries is a stationary regime followed by an abrupt level shift —
// the canonical case where a model whose normalization froze at fit time
// keeps paying the old regime's error until a refit re-anchors it.
func driftingSeries(n, shiftAt int) []Observation {
	out := make([]Observation, n)
	for i := range out {
		level := 10.0
		if i >= shiftAt {
			level = 90.0
		}
		out[i] = Observation{Value: math.Floor(level + 4*math.Sin(float64(i)/5))}
	}
	return out
}

func TestOnlineRefitConvergence(t *testing.T) {
	hist := driftingSeries(800, 400)
	// The LSTM count classifier bakes its input normalization and bucket
	// edges in at Fit, so a 9x level shift leaves a frozen model stuck in
	// the old bucket range — exactly what the drift detector exists for.
	cfg := Config{Seed: 9, Role: RoleCount, Budget: BudgetOnline}

	// Frozen: fit once on the first regime, never refit.
	frozen := MustNew("lstm", cfg)
	onFrozen := NewOnline(frozen, 1)
	if err := onFrozen.Refit(hist[:200]); err != nil {
		t.Fatalf("warmup fit: %v", err)
	}
	for _, o := range hist[200:] {
		onFrozen.Forecast()
		onFrozen.Observe(o)
	}
	frozenRep := onFrozen.Report()

	// Drift-only refits through the walk-forward harness.
	driftRep, err := EvaluateSeries("lstm", cfg, hist, EvalOpts{Horizon: 1, Warmup: 200})
	if err != nil {
		t.Fatalf("EvaluateSeries: %v", err)
	}
	if driftRep.DriftRefits < 1 {
		t.Fatalf("no drift-forced refit on a level-shifted series: %+v", driftRep)
	}
	if driftRep.OneStepMAE() >= frozenRep.OneStepMAE() {
		t.Errorf("drift refits did not converge: MAE %.4f (refitting) vs %.4f (frozen)",
			driftRep.OneStepMAE(), frozenRep.OneStepMAE())
	}
}

func TestEvaluateSeriesErrors(t *testing.T) {
	var ue *UnknownError
	if _, err := EvaluateSeries("bogus", Config{}, synth(100, 1, 1), EvalOpts{}); !errors.As(err, &ue) {
		t.Errorf("unknown family err = %v, want *UnknownError", err)
	}
	if _, err := EvaluateSeries("naive", Config{}, synth(10, 1, 1), EvalOpts{Warmup: 20}); err != ErrShortSeries {
		t.Errorf("warmup >= len err = %v, want ErrShortSeries", err)
	}
}

func TestEvaluateSeriesScoresEveryStep(t *testing.T) {
	hist := synth(300, 4, 2)
	rep, err := EvaluateSeries("naive", Config{}, hist, EvalOpts{Horizon: 3, Warmup: 100, RefitEvery: 50})
	if err != nil {
		t.Fatalf("EvaluateSeries: %v", err)
	}
	if want := int64(200); rep.Samples[0] != want {
		t.Errorf("one-step samples = %d, want %d", rep.Samples[0], want)
	}
	if rep.Samples[2] >= rep.Samples[0] {
		t.Errorf("deeper horizons must have fewer samples: %v", rep.Samples)
	}
	if rep.Refits < 4 {
		t.Errorf("scheduled refits = %d, want >= 4", rep.Refits)
	}
	if rep.Horizon != 3 || rep.Forecaster != "naive" {
		t.Errorf("report header: %+v", rep)
	}
}

// unbuffered hides a family's buffer-filling predictor, so Online takes the
// allocating Predict path.
type unbuffered struct{ Forecaster }

// unbufferedUpper is unbuffered for a family with upper bounds.
type unbufferedUpper struct {
	unbuffered
	UpperBounder
}

// hideBuffers wraps f in unbuffered, keeping its upper-bound capability.
func hideBuffers(f Forecaster) Forecaster {
	if ub, ok := f.(UpperBounder); ok {
		return unbufferedUpper{unbuffered{f}, ub}
	}
	return unbuffered{f}
}

// TestOnlineBufferedForecastsMatch: forecasts and upper bounds written into
// Online's recycled buffers score exactly like freshly allocated ones — same
// forecasts, same registered upper bounds, same report — for the naive
// family and both roles of the LSTM family, including re-predictions between
// observations and a refit half way.
func TestOnlineBufferedForecastsMatch(t *testing.T) {
	lstm := func(role Role) func() Forecaster {
		return func() Forecaster { return MustNew("lstm", Config{Seed: 3, Role: role, Budget: BudgetOnline}) }
	}
	for _, c := range []struct {
		name string
		f    func() Forecaster
		hist []Observation
		fit  int // observations fitted on before the stream starts
	}{
		{"naive", func() Forecaster { return &naiveForecaster{} }, driftingSeries(300, 150), 0},
		{"lstm-count", lstm(RoleCount), lstmFixture(RoleCount, 200), 96},
		{"lstm-interarrival", lstm(RoleInterArrival), lstmFixture(RoleInterArrival, 200), 96},
	} {
		buffered, plain := NewOnline(c.f(), 4), NewOnline(hideBuffers(c.f()), 4)
		if buffered.into == nil || plain.into != nil {
			t.Fatalf("%s: the family should predict into Online's buffers, the wrapper should not", c.name)
		}
		_, hasUpper := buffered.f.(UpperBounder)
		if _, ok := plain.f.(UpperBounder); ok != hasUpper {
			t.Fatalf("%s: the wrapper changed the upper-bound capability", c.name)
		}
		refitAt := c.fit + (len(c.hist)-c.fit)/2
		for i := c.fit; i < len(c.hist); i++ {
			if (i == c.fit && c.fit > 0) || i == refitAt {
				for _, o := range []*Online{buffered, plain} {
					if err := o.Refit(c.hist[:i]); err != nil {
						t.Fatalf("%s: Refit at %d: %v", c.name, i, err)
					}
				}
			}
			for k := 0; k <= i%3; k++ { // re-predictions register nothing
				sameForecast(t, fmt.Sprintf("%s: step %d forecast %d", c.name, i, k), buffered.Forecast(), plain.Forecast())
			}
			a, b := buffered.queue[len(buffered.queue)-1].upper, plain.queue[len(plain.queue)-1].upper
			if (a != nil) != hasUpper {
				t.Fatalf("%s: step %d registered upper bound %v", c.name, i, a)
			}
			sameForecast(t, fmt.Sprintf("%s: step %d upper bound", c.name, i), a, b)
			buffered.Observe(c.hist[i])
			plain.Observe(c.hist[i])
		}
		if a, b := buffered.Report(), plain.Report(); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: report %+v, want %+v", c.name, a, b)
		}
	}
}
