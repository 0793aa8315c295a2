package forecast

import (
	"math"
	"testing"

	"smiless/internal/mathx"
	"smiless/internal/trace"
)

// newCount is the count classifier at the given bucket size and seed.
func newCount(bucket int, seed int64) *countLSTM {
	f := newCountLSTM(Config{Seed: seed})
	f.bucketSize = bucket
	return f
}

// walkForward fits f on train, then forecasts each test value one step
// ahead before revealing it.
func walkForward(t *testing.T, f Forecaster, train, test []float64) []float64 {
	t.Helper()
	if err := f.Fit(Obs(train, nil)); err != nil {
		t.Fatalf("%s: Fit: %v", f.Name(), err)
	}
	preds := make([]float64, len(test))
	for i, v := range test {
		preds[i] = f.Predict(1)[0]
		f.Update(Observation{Value: v})
	}
	return preds
}

// underestimateRate is the share of steps forecast below the truth.
func underestimateRate(preds, truth []float64) float64 {
	under := 0
	for i, p := range preds {
		if p < truth[i] {
			under++
		}
	}
	return float64(under) / float64(len(truth))
}

// periodicCounts builds a deterministic periodic count series with mild
// noise: an easy pattern every predictor should track.
func periodicCounts(n int, seed int64) []float64 {
	r := mathx.NewRand(seed)
	out := make([]float64, n)
	for i := range out {
		base := 6 + 5*math.Sin(2*math.Pi*float64(i)/24)
		out[i] = math.Max(0, math.Round(base+r.NormFloat64()*0.5))
	}
	return out
}

// burstyCounts builds an Azure-like count series dense enough that the
// per-window counts carry learnable structure (the Fig. 12 regime).
func burstyCounts(n int, seed int64) []float64 {
	r := mathx.NewRand(seed)
	tr := trace.AzureLike(r, trace.DenseAzureLike(float64(n)))
	cs := tr.Counts(1)
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = float64(c)
	}
	return out
}

func TestInvocationPredictorRarelyUnderestimates(t *testing.T) {
	// Fig. 12(a): the bucket classifier's underestimation error ~3%.
	series := periodicCounts(700, 1)
	preds := walkForward(t, newCount(2, 1), series[:400], series[400:])
	if u := underestimateRate(preds, series[400:]); u > 0.10 {
		t.Errorf("underestimate rate = %.1f%%, want <= 10%%", u*100)
	}
}

func TestInvocationPredictorBeatsBaselinesOnUnderestimation(t *testing.T) {
	series := burstyCounts(900, 2)
	train, test := series[:600], series[600:]
	lstm := underestimateRate(walkForward(t, newCount(2, 3), train, test), test)
	// The upper-bound classification approach must underestimate less than
	// the point-forecast baselines (the paper's core argument).
	for _, name := range []string{"arima", "fip"} {
		base := underestimateRate(walkForward(t, MustNew(name, Config{}), train, test), test)
		if lstm >= base {
			t.Errorf("LSTM underestimates %.1f%%, %s %.1f%% — LSTM should win", lstm*100, name, base*100)
		}
	}
}

func TestInvocationPredictorBuckets(t *testing.T) {
	p := newCount(4, 1)
	if p.bucket(0) != 0 || p.bucket(1) != 1 || p.bucket(4) != 1 || p.bucket(5) != 2 {
		t.Error("bucket boundaries wrong")
	}
	if p.upper(2) != 8 {
		t.Errorf("upper(2) = %v, want 8", p.upper(2))
	}
}

func TestARIMARecoversAR1(t *testing.T) {
	// Series y[t] = 0.8 y[t-1] + e: AR(1) coefficient should be ~0.8.
	r := mathx.NewRand(4)
	n := 2000
	series := make([]float64, n)
	for i := 1; i < n; i++ {
		series[i] = 0.8*series[i-1] + r.NormFloat64()
	}
	a := &arimaForecaster{p: 1}
	if err := a.Fit(Obs(series, nil)); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if math.Abs(a.coef[0]-0.8) > 0.05 {
		t.Errorf("AR(1) coefficient = %v, want ~0.8", a.coef[0])
	}
}

func TestARIMAPredictConstant(t *testing.T) {
	series := make([]float64, 100)
	for i := range series {
		series[i] = 5
	}
	a := &arimaForecaster{p: 3}
	if err := a.Fit(Obs(series, nil)); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if got := a.Predict(1)[0]; math.Abs(got-5) > 0.5 {
		t.Errorf("constant-series prediction = %v, want ~5", got)
	}
}

func TestFFTRoundTrip(t *testing.T) {
	r := mathx.NewRand(5)
	n := 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), 0)
	}
	spec := fft(x, false)
	back := fft(spec, true)
	for i := range x {
		if math.Abs(real(back[i])/float64(n)-real(x[i])) > 1e-9 {
			t.Fatalf("fft round trip failed at %d", i)
		}
	}
}

func TestFFTParseval(t *testing.T) {
	r := mathx.NewRand(6)
	n := 128
	x := make([]complex128, n)
	var sumT float64
	for i := range x {
		v := r.NormFloat64()
		x[i] = complex(v, 0)
		sumT += v * v
	}
	spec := fft(x, false)
	var sumF float64
	for _, s := range spec {
		sumF += real(s)*real(s) + imag(s)*imag(s)
	}
	if math.Abs(sumF/float64(n)-sumT) > 1e-6 {
		t.Errorf("Parseval violated: time %v vs freq %v", sumT, sumF/float64(n))
	}
}

func TestFIPTracksPeriodicSignal(t *testing.T) {
	// Pure sinusoid with period 32: FIP should predict within the signal's
	// amplitude scale.
	n := 512
	series := make([]float64, n)
	for i := range series {
		series[i] = 10 + 8*math.Sin(2*math.Pi*float64(i)/32)
	}
	preds := walkForward(t, MustNew("fip", Config{}), series[:256], series[256:])
	if m := mathx.MAPE(preds, series[256:]); m > 25 {
		t.Errorf("FIP MAPE on pure sinusoid = %.1f%%, want < 25%%", m)
	}
}

func TestGBTLearnsLagRelation(t *testing.T) {
	// y[t] = y[t-1]: GBT over lags should track a slow random walk.
	r := mathx.NewRand(7)
	n := 600
	series := make([]float64, n)
	series[0] = 50
	for i := 1; i < n; i++ {
		series[i] = math.Max(0, series[i-1]+r.NormFloat64())
	}
	preds := walkForward(t, MustNew("gbt", Config{}), series[:400], series[400:])
	if m := mathx.MAPE(preds, series[400:]); m > 15 {
		t.Errorf("GBT MAPE on random walk = %.1f%%, want < 15%%", m)
	}
}

// TestFitShortSeries: each family reports ErrShortSeries on a history too
// short for it, and stays on persistence.
func TestFitShortSeries(t *testing.T) {
	for _, c := range []struct {
		name string
		role Role
		n    int // the longest history too short to fit
	}{
		{"lstm", RoleCount, 34}, {"lstm", RoleInterArrival, 16},
		{"arima", RoleCount, 9}, {"gbt", RoleCount, 13},
		{"fip", RoleCount, 1}, {"histogram", RoleInterArrival, 1},
	} {
		t.Run(c.name+"-"+c.role.String(), func(t *testing.T) {
			f := MustNew(c.name, Config{Role: c.role})
			if err := f.Fit(make([]Observation, c.n)); err != ErrShortSeries {
				t.Errorf("Fit on %d observations: %v, want ErrShortSeries", c.n, err)
			}
			f.Update(Observation{Value: 2.5})
			if got := f.Predict(1)[0]; got != 2.5 {
				t.Errorf("unfitted forecast %v, want persistence 2.5", got)
			}
		})
	}
}

// iatSeries builds aligned inter-arrival and count series from a trace at
// window granularity: the paper defines the inter-arrival time as the gap
// between consecutive windows with non-zero invocations (§IV-B2), which is
// also what the controller feeds the predictor.
func iatSeries(tr *trace.Trace) []Observation {
	cs := tr.Counts(1)
	var events []float64
	lastWin := -1
	for _, a := range tr.Arrivals {
		w := int(a)
		if w != lastWin {
			events = append(events, a)
			lastWin = w
		}
	}
	var out []Observation
	for i := 1; i < len(events); i++ {
		w := int(events[i])
		if w >= len(cs) {
			w = len(cs) - 1
		}
		out = append(out, Observation{Value: events[i] - events[i-1], Cov: float64(cs[w])})
	}
	return out
}

// iatEval walks f over test after fitting it on train and reports the MAPE,
// the over-estimation rate and the mean relative overshoot of the
// over-estimates (Fig. 12(b)).
func iatEval(t *testing.T, f Forecaster, train, test []Observation) (mape, overRate, overshoot float64) {
	t.Helper()
	if err := f.Fit(train); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	preds, truth := make([]float64, len(test)), make([]float64, len(test))
	over := 0
	for i, o := range test {
		preds[i], truth[i] = f.Predict(1)[0], o.Value
		if preds[i] > o.Value {
			over++
			if o.Value > 0 {
				overshoot += (preds[i] - o.Value) / o.Value
			}
		}
		f.Update(o)
	}
	if over > 0 {
		overshoot /= float64(over)
	}
	return mathx.MAPE(preds, truth), float64(over) / float64(len(test)), overshoot
}

func TestIATPredictorLearns(t *testing.T) {
	// Alternating regime: gaps of 1s and 4s in blocks. The predictor must
	// do much better than the global mean.
	obs := make([]Observation, 600)
	for i := range obs {
		obs[i] = Observation{Value: 4, Cov: 2}
		if (i/40)%2 == 0 {
			obs[i] = Observation{Value: 1, Cov: 8}
		}
	}
	p := newIATLSTM(Config{Seed: 1}, true)
	p.epochs = 6
	if mape, _, _ := iatEval(t, p, obs[:400], obs[400:]); mape > 35 {
		t.Errorf("dual-LSTM MAPE = %.1f%%, want < 35%%", mape)
	}
}

func TestDualInputReducesOverestimation(t *testing.T) {
	// Fig. 12(b): the dual-input model overestimates less than SMIless-S.
	r := mathx.NewRand(8)
	obs := iatSeries(trace.AzureLike(r, trace.DefaultAzureLike(4800)))
	if len(obs) < 400 {
		t.Skip("trace too sparse")
	}
	cut := len(obs) * 2 / 3
	dMAPE, dRate, dOver := iatEval(t, newIATLSTM(Config{Seed: 9}, true), obs[:cut], obs[cut:])
	sMAPE, sRate, sOver := iatEval(t, NewSingleInputIAT(Config{Seed: 9}), obs[:cut], obs[cut:])
	// Compare the over-estimation burden (rate × mean overshoot). A
	// degenerate single-input model that under-predicts everything has
	// zero burden but useless accuracy, so require the dual model to be
	// at least comparable overall before comparing burdens.
	if dMAPE > sMAPE*1.2 {
		t.Errorf("dual MAPE %.1f%% should not exceed single %.1f%% by >20%%", dMAPE, sMAPE)
	}
	dBurden, sBurden := dRate*dOver, sRate*sOver
	if sBurden > 0.01 && dBurden > sBurden*1.1 {
		t.Errorf("dual over-estimation burden %.4f should not exceed single %.4f", dBurden, sBurden)
	}
}

// The forecasters sit behind a live control plane whose arrival history can
// be empty, one element long, or derived from out-of-order timestamps
// (negative gaps). None of that may panic, and each must return its
// documented fallback.

func TestHistogramEdgeCases(t *testing.T) {
	h := &IdleHistogram{}
	// Empty history: the fallback keep-alive applies.
	if got := h.KeepAliveFor(); got != histFallbackKeepAlive {
		t.Errorf("empty KeepAliveFor = %v, want fallback %v", got, histFallbackKeepAlive)
	}
	if got := h.PrewarmAfter(); got != 0 {
		t.Errorf("empty PrewarmAfter = %v, want 0 (no pre-warm delay without evidence)", got)
	}
	// A single observation is below the sample gate: still the fallback.
	h.Observe(12)
	if got := h.KeepAliveFor(); got != histFallbackKeepAlive {
		t.Errorf("single-sample KeepAliveFor = %v, want fallback %v", got, histFallbackKeepAlive)
	}
	// Out-of-order timestamps upstream produce negative idle gaps; they
	// count as immediate re-arrivals and never panic.
	for i := 0; i < 20; i++ {
		h.Observe(-0.5)
	}
	if h.total != 21 {
		t.Errorf("samples = %d, want 21", h.total)
	}
	if got := h.KeepAliveFor(); got <= 0 || math.IsNaN(got) {
		t.Errorf("KeepAliveFor after negative observations = %v, want positive", got)
	}
}

func TestFIPEdgeCases(t *testing.T) {
	if got := fipStep([]Observation{{Value: 3}}); math.IsNaN(got) || got < 0 {
		t.Errorf("FIP on a single value = %v, want finite non-negative", got)
	}
	// Out-of-order history (a negative count can't occur, but a wildly
	// unsorted series can): must stay finite.
	if got := fipStep(Obs([]float64{5, 0, 9, 0, 1}, nil)); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("FIP on an unsorted series = %v, want finite", got)
	}
}

func TestIATPredictorEdgeCases(t *testing.T) {
	p := newIATLSTM(Config{Seed: 1}, true)
	// Fit on empty / single / short series leaves the model untrained.
	for _, n := range []int{0, 1, p.seqLen} {
		if err := p.Fit(make([]Observation, n)); err != ErrShortSeries {
			t.Errorf("Fit on %d gaps: %v, want ErrShortSeries", n, err)
		}
	}
	// Untrained predictions use the persistence fallback; out-of-order
	// timestamps yield a negative trailing gap, clamped to 0.
	for _, c := range []struct {
		gap, want float64
	}{{4.2, 4.2}, {-3, 0}} {
		p.Update(Observation{Value: c.gap, Cov: 1})
		if got := p.Predict(1)[0]; got != c.want {
			t.Errorf("untrained forecast after gap %v = %v, want %v", c.gap, got, c.want)
		}
	}

	// Once trained, empty histories still must not panic: the window pads
	// with zeros and the clamped output stays non-negative and finite.
	train := make([]Observation, p.seqLen+8)
	for i := range train {
		train[i] = Observation{Value: 1 + 0.1*float64(i%3), Cov: float64(1 + i%2)}
	}
	if err := p.Fit(train); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if got := p.forecast(nil, nil); got < 0 || math.IsNaN(got) {
		t.Errorf("trained forecast on no history = %v, want finite non-negative", got)
	}
	if got := p.forecast([]float64{1.5}, []float64{1}); got < 0 || math.IsNaN(got) {
		t.Errorf("trained forecast on one gap = %v, want finite non-negative", got)
	}
}
