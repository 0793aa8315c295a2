package forecast

import (
	"fmt"
	"testing"
)

// scratchRefit is the refit the LSTM families had before it warm-started: every
// Fit trains a new instance from the seed on the whole history. It lives on
// here as the yardstick for what a warm refit may cost in forecast quality.
type scratchRefit struct {
	Forecaster
	seed int64
}

func (s *scratchRefit) Fit(hist []Observation) error {
	c := s.Forecaster.Clone(s.seed)
	if err := c.Fit(hist); err != nil {
		return err
	}
	s.Forecaster = c
	return nil
}

// TestWarmRefitParity walks both LSTM roles forward with a refit every 40
// steps: continuing from the fitted model on the new observations must
// forecast about as well as retraining on everything.
func TestWarmRefitParity(t *testing.T) {
	for _, role := range []Role{RoleCount, RoleInterArrival} {
		cfg := Config{Seed: 5, Role: role, Budget: BudgetOnline}
		hist := synth(360, 3, 2)
		if role == RoleCount {
			hist = counts(360)
		}
		opts := EvalOpts{Horizon: 1, Warmup: 120, RefitEvery: 40}
		warm, err := evaluate(MustNew("lstm", cfg), hist, opts)
		if err != nil {
			t.Fatalf("%v: warm: %v", role, err)
		}
		scratch, err := evaluate(&scratchRefit{Forecaster: MustNew("lstm", cfg), seed: cfg.Seed}, hist, opts)
		if err != nil {
			t.Fatalf("%v: from scratch: %v", role, err)
		}
		if warm.Refits != scratch.Refits || warm.Refits < 6 {
			t.Fatalf("%v: refits %d warm vs %d from scratch, want equal and >= 6", role, warm.Refits, scratch.Refits)
		}
		t.Logf("%v: sMAPE@1 %.4f warm, %.4f from scratch", role, warm.OneStepSMAPE(), scratch.OneStepSMAPE())
		if warm.OneStepSMAPE() > scratch.OneStepSMAPE()+0.03 {
			t.Errorf("%v: sMAPE@1 %.4f with warm refits vs %.4f refitting from scratch", role, warm.OneStepSMAPE(), scratch.OneStepSMAPE())
		}
	}
}

// TestLSTMRefitStartsOverWithoutHeadroom: when the tail holds a count the
// fitted head has no class for, the refit is the from-scratch fit — the
// forecasts of a new instance fitted on that tail — and reaches the new level.
func TestLSTMRefitStartsOverWithoutHeadroom(t *testing.T) {
	cfg := Config{Seed: 3, Role: RoleCount, Budget: BudgetOnline}
	hist := lstmFixture(RoleCount, 120) // 2s and 12s: 14 classes
	tail := append([]Observation(nil), hist...)
	for i := 0; i < 30; i++ {
		tail = append(tail, Observation{Value: 13})
	}
	f := MustNew("lstm", cfg)
	if err := f.Fit(hist); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	for _, o := range tail[len(hist):] {
		f.Update(o)
	}
	if err := f.Fit(tail); err != nil {
		t.Fatalf("refit: %v", err)
	}
	scratch := MustNew("lstm", cfg)
	if err := scratch.Fit(tail); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	got := f.Predict(4)
	sameForecast(t, "refit on a tail past the head's last class", got, scratch.Predict(4))
	if got[0] < 13 {
		t.Errorf("forecast %v after 30 windows at 13", got)
	}
}

// TestLSTMRefitStaysWarmBelowLastClass: when the tail's largest count is one
// bucket below the fitted head's last class, the refit stays warm: same head,
// and the optimizer continues over the 30 fresh windows and as many replayed.
func TestLSTMRefitStaysWarmBelowLastClass(t *testing.T) {
	cfg := Config{Seed: 3, Role: RoleCount, Budget: BudgetOnline}
	hist := lstmFixture(RoleCount, 120) // 2s and 12s: 14 classes
	tail := append([]Observation(nil), hist...)
	for i := 0; i < 30; i++ {
		tail = append(tail, Observation{Value: 12})
	}
	warm := MustNew("lstm", cfg).(*countLSTM)
	if err := warm.Fit(hist); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	classes, steps := warm.classes, warm.opt.t
	for _, o := range tail[len(hist):] {
		warm.Update(o)
	}
	if err := warm.Fit(tail); err != nil {
		t.Fatalf("refit: %v", err)
	}
	if warm.classes != classes || warm.opt.t-steps != warm.epochs*60 {
		t.Errorf("refit at bucket 12 of %d classes started over: %d classes, %d optimizer steps", classes, warm.classes, warm.opt.t-steps)
	}
}

// lstmOf returns the state an LSTM family instance shares with the other
// role's family, and the model it serves (nil before the first Fit).
func lstmOf(f Forecaster) (*lstmState, *LSTM) {
	switch f := f.(type) {
	case *countLSTM:
		return &f.lstmState, f.lstm
	case *iatLSTM:
		return &f.lstmState, f.lstmIAT
	}
	panic(fmt.Sprintf("forecast: %T is not an LSTM family", f))
}

// TestLSTMFailedRefitKeepsState: a Fit that returns ErrShortSeries leaves the
// model, the remembered forecast and the count of unseen observations alone,
// so the next refit still trains on everything that arrived since the last
// successful one.
func TestLSTMFailedRefitKeepsState(t *testing.T) {
	for _, role := range []Role{RoleCount, RoleInterArrival} {
		cfg := Config{Seed: 3, Role: role}
		hist := lstmFixture(role, 110)
		run := func(failInBetween bool) []float64 {
			f := MustNew("lstm", cfg)
			st, _ := lstmOf(f)
			if err := f.Fit(hist[:96]); err != nil {
				t.Fatalf("%v: Fit: %v", role, err)
			}
			for _, o := range hist[96:] {
				f.Update(o)
			}
			if failInBetween {
				want := f.Predict(4)
				_, model := lstmOf(f)
				if err := f.Fit(hist[:5]); err != ErrShortSeries {
					t.Fatalf("%v: short Fit err = %v, want ErrShortSeries", role, err)
				}
				if _, after := lstmOf(f); st.fresh != 14 || st.memo == nil || after != model || len(st.hist) != 110 {
					t.Errorf("%v: failed refit disturbed the forecaster: fresh %d, memo %v, %d observations", role, st.fresh, st.memo, len(st.hist))
				}
				sameForecast(t, role.String()+": Predict after a failed refit", f.Predict(4), want)
			}
			if err := f.Fit(hist); err != nil {
				t.Fatalf("%v: refit: %v", role, err)
			}
			if st.fresh != 0 {
				t.Errorf("%v: fresh = %d after a successful refit", role, st.fresh)
			}
			return f.Predict(4)
		}
		sameForecast(t, role.String()+": refit after a failed one", run(true), run(false))
	}
}

// TestTailRollForwardMatchesWholeHistory: arima and gbt hand their model only
// the tail it reads; the forecast must be the whole-history one to the bit,
// below, at and far above the tail length.
func TestTailRollForwardMatchesWholeHistory(t *testing.T) {
	src := synth(8000, 5, 3)
	for _, n := range []int{40, 400, 8000} {
		ar := MustNew("arima", Config{}).(*arimaForecaster)
		gb := MustNew("gbt", Config{}).(*gbtForecaster)
		for _, f := range []Forecaster{ar, gb} {
			if err := f.Fit(src[:30]); err != nil {
				t.Fatalf("%s: Fit: %v", f.Name(), err)
			}
			for _, o := range src[30:n] {
				f.Update(o)
			}
		}
		for _, horizon := range []int{1, 4} {
			whole := make([]float64, horizon)
			rollForward(whole, nil, ar.hist, ar.step)
			sameForecast(t, fmt.Sprintf("arima over %d observations, horizon %d", n, horizon), ar.Predict(horizon), whole)
			whole = make([]float64, horizon)
			rollForward(whole, nil, gb.hist, gb.step)
			sameForecast(t, fmt.Sprintf("gbt over %d observations, horizon %d", n, horizon), gb.Predict(horizon), whole)
		}
	}
}
