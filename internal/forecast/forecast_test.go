package forecast

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// synth builds a deterministic test series: a two-tone sine over a base
// level, floored at zero, with a small cycling covariate. No RNG — the
// package is lint:deterministic and the tests honour that.
func synth(n int, base, amp float64) []Observation {
	out := make([]Observation, n)
	for i := range out {
		v := base + amp*math.Sin(float64(i)/7) + 0.3*amp*math.Sin(float64(i)/3)
		if v < 0 {
			v = 0
		}
		out[i] = Observation{Value: v, Cov: float64(i%5) + 1}
	}
	return out
}

// counts builds an integer-valued count-like series.
func counts(n int) []Observation {
	src := synth(n, 6, 4)
	for i := range src {
		src[i] = Observation{Value: math.Floor(src[i].Value)}
	}
	return src
}

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	for _, want := range []string{"arima", "fip", "gbt", "histogram", "lstm", "naive", "transformer"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Names() missing %q: %v", want, names)
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register(duplicate) did not panic")
		}
	}()
	Register("lstm", func(cfg Config) Forecaster { return &naiveForecaster{cfg: cfg} })
}

func TestLookupUnknownTyped(t *testing.T) {
	_, err := Lookup("bogus")
	var ue *UnknownError
	if !errors.As(err, &ue) {
		t.Fatalf("Lookup(bogus) err = %T %v, want *UnknownError", err, err)
	}
	if ue.Name != "bogus" {
		t.Errorf("UnknownError.Name = %q", ue.Name)
	}
	if !strings.Contains(err.Error(), "lstm") {
		t.Errorf("error should list registered families: %v", err)
	}
}

// TestLookupEmptyIsUnknown: the empty name selects no family (callers take it
// to mean the moving-window estimator), so the registry does not resolve it.
func TestLookupEmptyIsUnknown(t *testing.T) {
	var ue *UnknownError
	if _, err := Lookup(""); !errors.As(err, &ue) {
		t.Errorf("Lookup(\"\") err = %v, want *UnknownError", err)
	}
}

func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(1, "count") != DeriveSeed(1, "count") {
		t.Error("DeriveSeed not deterministic")
	}
	if DeriveSeed(1, "count") == DeriveSeed(1, "iat") {
		t.Error("DeriveSeed should decorrelate tags")
	}
	if DeriveSeed(1, "count") == DeriveSeed(2, "count") {
		t.Error("DeriveSeed should decorrelate base seeds")
	}
}

func TestUntrainedPersistence(t *testing.T) {
	for _, name := range Names() {
		f := MustNew(name, Config{Seed: 1})
		got := f.Predict(3)
		if len(got) != 3 {
			t.Fatalf("%s: Predict(3) len %d", name, len(got))
		}
		for _, v := range got {
			if !bitsEq(v, 0) {
				t.Errorf("%s: untrained no-history forecast = %v, want 0", name, v)
			}
		}
		f.Update(Observation{Value: 7})
		for _, v := range f.Predict(2) {
			if !bitsEq(v, 7) {
				t.Errorf("%s: untrained persistence = %v, want 7", name, v)
			}
		}
	}
}

func TestPredictPanicsOnBadHorizon(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Predict(0) did not panic")
		}
	}()
	MustNew("naive", Config{}).Predict(0)
}

func TestShortSeriesKeepsPriorFit(t *testing.T) {
	hist := counts(120)
	f := MustNew("lstm", Config{Seed: 3, Role: RoleCount})
	if err := f.Fit(hist); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	want := f.Predict(1)[0]
	if err := f.Fit(hist[:5]); err != ErrShortSeries {
		t.Fatalf("short Fit err = %v, want ErrShortSeries", err)
	}
	if got := f.Predict(1)[0]; !bitsEq(got, want) {
		t.Errorf("short Fit disturbed the prior model: %v != %v", got, want)
	}
}

// TestUpdateExtendsPredictionSeries pins Update semantics: appending the
// tail via Update must predict exactly as the model fitted on the prefix
// reading the full series.
func TestUpdateExtendsPredictionSeries(t *testing.T) {
	const seed = 7
	cnt := counts(200)
	full := make([]float64, len(cnt))
	for i, o := range cnt {
		full[i] = o.Value
	}

	f := MustNew("lstm", Config{Seed: seed, Role: RoleCount}).(*countLSTM)
	if err := f.Fit(cnt[:150]); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	for _, o := range cnt[150:] {
		f.Update(o)
	}
	got := f.Predict(1)[0]
	if want := f.forecast(full); !bitsEq(got, want) {
		t.Errorf("Update-extended forecast %v != model-on-full %v", got, want)
	}
}

func TestCloneReproducible(t *testing.T) {
	hist := counts(160)
	for _, name := range Names() {
		f := MustNew(name, Config{Seed: 1, Role: RoleCount})
		c1 := f.Clone(99)
		c2 := f.Clone(99)
		// Clones start untrained regardless of the parent's state.
		if err := f.Fit(hist); err != nil {
			t.Fatalf("%s: Fit: %v", name, err)
		}
		if got := c1.Predict(1)[0]; !bitsEq(got, 0) {
			t.Errorf("%s: clone inherited training: %v", name, got)
		}
		if err := c1.Fit(hist); err != nil {
			t.Fatalf("%s: clone Fit: %v", name, err)
		}
		if err := c2.Fit(hist); err != nil {
			t.Fatalf("%s: clone Fit: %v", name, err)
		}
		a, b := c1.Predict(4), c2.Predict(4)
		for i := range a {
			if !bitsEq(a[i], b[i]) {
				t.Errorf("%s: clones diverge at step %d: %v != %v", name, i, a[i], b[i])
			}
		}
	}
}

func TestRollForwardConsistency(t *testing.T) {
	hist := counts(160)
	for _, name := range Names() {
		f := MustNew(name, Config{Seed: 1, Role: RoleCount})
		if err := f.Fit(hist); err != nil {
			t.Fatalf("%s: Fit: %v", name, err)
		}
		one := f.Predict(1)
		multi := f.Predict(5)
		if len(one) != 1 || len(multi) != 5 {
			t.Fatalf("%s: horizon lengths %d/%d", name, len(one), len(multi))
		}
		if !bitsEq(one[0], multi[0]) {
			t.Errorf("%s: Predict(1)[0]=%v != Predict(5)[0]=%v", name, one[0], multi[0])
		}
	}
}

func TestTransformerDeterministicAndBounded(t *testing.T) {
	hist := synth(300, 5, 3)
	a := MustNew("transformer", Config{Seed: 11})
	b := MustNew("transformer", Config{Seed: 11})
	if err := a.Fit(hist); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if err := b.Fit(hist); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	pa, pb := a.Predict(6), b.Predict(6)
	for i := range pa {
		if !bitsEq(pa[i], pb[i]) {
			t.Fatalf("transformer not deterministic at step %d: %v != %v", i, pa[i], pb[i])
		}
		if math.IsNaN(pa[i]) || math.IsInf(pa[i], 0) || pa[i] < 0 {
			t.Fatalf("transformer forecast out of range at step %d: %v", i, pa[i])
		}
	}
	ub, ok := a.(UpperBounder)
	if !ok {
		t.Fatal("transformer should implement UpperBounder")
	}
	up := ub.PredictUpper(6)
	for i := range up {
		if up[i] < pa[i] {
			t.Errorf("upper bound below point forecast at step %d: %v < %v", i, up[i], pa[i])
		}
	}
}

func TestTransformerAllZeroHistory(t *testing.T) {
	// Regression: all-zero context windows once produced astronomically
	// scaled retrievals (the embed scale collapsed to ~0). Forecasts over a
	// zero series must stay at zero.
	hist := make([]Observation, 120)
	f := MustNew("transformer", Config{Seed: 1})
	if err := f.Fit(hist); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	for i, v := range f.Predict(4) {
		if math.Abs(v) > 1e-6 {
			t.Errorf("zero-series forecast at step %d = %v, want ~0", i, v)
		}
	}
}

func TestHistogramUpperAboveMedian(t *testing.T) {
	hist := synth(400, 10, 6)
	f := MustNew("histogram", Config{})
	if err := f.Fit(hist); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	point := f.Predict(1)[0]
	upper := f.(UpperBounder).PredictUpper(1)[0]
	if upper < point {
		t.Errorf("histogram upper %v below median %v", upper, point)
	}
}

func TestSeriesTrimBounded(t *testing.T) {
	f := MustNew("naive", Config{}).(*naiveForecaster)
	for i := 0; i < maxHistory+500; i++ {
		f.Update(Observation{Value: float64(i)})
	}
	if len(f.hist) != maxHistory {
		t.Errorf("history len %d, want %d", len(f.hist), maxHistory)
	}
	if got := f.Predict(1)[0]; !bitsEq(got, float64(maxHistory+499)) {
		t.Errorf("trim lost the tail: %v", got)
	}
}

// lstmFixture is a training history per LSTM role. Counts are a square
// wave (six windows at 2, six at 12): the bucket classifier answers in whole
// buckets, and only a regime edge in its input window moves its forecast.
// Gaps are the smooth synthetic series with its count covariate.
func lstmFixture(role Role, n int) []Observation {
	if role == RoleInterArrival {
		return synth(n, 3, 2)
	}
	out := make([]Observation, n)
	for i := range out {
		out[i].Value = 2
		if i/6%2 == 1 {
			out[i].Value = 12
		}
	}
	return out
}

func sameForecast(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d steps, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !bitsEq(got[i], want[i]) {
			t.Errorf("%s: step %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func forecastMoved(a, b []float64) bool {
	for i := range a {
		if !bitsEq(a[i], b[i]) {
			return true
		}
	}
	return false
}

// TestLSTMForecastMemo pins the remembered forecast of the LSTM families: it
// may only ever answer what a roll-forward on the current model and history
// would. The oracle for each state is a new instance taken through the same
// Fit and Update calls and asked once, which cannot have anything remembered
// (a refit continues from the fitted model, so a state is its whole call
// sequence, not its last Fit).
func TestLSTMForecastMemo(t *testing.T) {
	const horizon = 4
	for _, role := range []Role{RoleCount, RoleInterArrival} {
		cfg := Config{Seed: 3, Role: role}
		histA, histB := lstmFixture(role, 96), lstmFixture(role, 140)
		updates := []Observation{{Value: 12, Cov: 2}, {Value: 2, Cov: 1}, {Value: 2, Cov: 1}}
		// reach builds a new forecaster, fits it and streams updates.
		reach := func(hist []Observation, updates []Observation) Forecaster {
			f := MustNew("lstm", cfg)
			if err := f.Fit(hist); err != nil {
				t.Fatalf("%v: Fit: %v", role, err)
			}
			for _, o := range updates {
				f.Update(o)
			}
			return f
		}

		f := reach(histA, nil)
		first := f.Predict(horizon)
		sameForecast(t, role.String()+": PredictUpper after Predict", f.(UpperBounder).PredictUpper(horizon), first)
		sameForecast(t, role.String()+": PredictUpper asked first", reach(histA, nil).(UpperBounder).PredictUpper(horizon), first)

		// The caller owns what it gets back.
		want := append([]float64(nil), first...)
		first[0], first[horizon-1] = -1, -1
		sameForecast(t, role.String()+": Predict after the caller scribbled on the last one", f.Predict(horizon), want)
		// A shorter horizon is the prefix of the longer roll-forward.
		sameForecast(t, role.String()+": Predict(2) after Predict(4)", f.Predict(2), want[:2])

		// Every Update and every refit must be seen. A fixture whose
		// forecast they never move would show nothing, so that is checked.
		last, moved := f.Predict(horizon), false
		for i := range updates {
			f.Update(updates[i])
			got := f.Predict(horizon)
			sameForecast(t, fmt.Sprintf("%v: Predict after Update %d", role, i+1), got, reach(histA, updates[:i+1]).Predict(horizon))
			moved = moved || forecastMoved(got, last)
			last = got
		}
		if !moved {
			t.Fatalf("%v: fixture too weak: no Update moved the forecast from %v", role, last)
		}
		if err := f.Fit(histB); err != nil {
			t.Fatalf("%v: refit: %v", role, err)
		}
		oracle := reach(histA, updates)
		if err := oracle.Fit(histB); err != nil {
			t.Fatalf("%v: oracle refit: %v", role, err)
		}
		got := f.Predict(horizon)
		sameForecast(t, role.String()+": Predict after refit", got, oracle.Predict(horizon))
		if !forecastMoved(got, last) {
			t.Fatalf("%v: fixture too weak: refit left the forecast at %v", role, last)
		}
	}
}

// TestLSTMPredictAllocsIndependentOfHistory is the forecast half of the
// allocation contract: a roll-forward hands the predictor the tail it reads
// and reuses its scratch, so a recomputed Predict allocates only the copy it
// returns, whatever the history behind that tail.
func TestLSTMPredictAllocsIndependentOfHistory(t *testing.T) {
	for _, role := range []Role{RoleCount, RoleInterArrival} {
		f := MustNew("lstm", Config{Seed: 1, Role: role, Budget: BudgetOnline})
		st, _ := lstmOf(f)
		if err := f.Fit(lstmFixture(role, 100)); err != nil {
			t.Fatalf("%v: Fit: %v", role, err)
		}
		for _, n := range []int{100, 8000} {
			for len(st.hist) < n {
				f.Update(Observation{Value: float64(len(st.hist) % 7), Cov: 1})
			}
			allocs := testing.AllocsPerRun(10, func() {
				st.memo = nil
				f.Predict(4)
			})
			if allocs > 1 {
				t.Errorf("%v: Predict(4) over %d observations: %v allocs, want <= 1", role, n, allocs)
			}
		}
	}
}
