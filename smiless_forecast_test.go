package smiless_test

import (
	"errors"
	"sort"
	"testing"

	"smiless"
)

func TestForecastersListed(t *testing.T) {
	names := smiless.Forecasters()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Forecasters() not sorted: %v", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []string{"lstm", "transformer", "arima", "naive"} {
		if !seen[want] {
			t.Errorf("Forecasters() missing %q: %v", want, names)
		}
	}
}

func TestWithForecasterUnknownTypedError(t *testing.T) {
	app := smiless.ImageQuery()
	tr := optionsTrace(3)
	_, err := smiless.Evaluate(smiless.SystemSMIless, app, tr, 2.0, smiless.WithForecaster("nope"))
	var ce *smiless.ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T %v, want *smiless.ConfigError", err, err)
	}
	if ce.Field != "forecaster" {
		t.Errorf("ConfigError.Field = %q, want forecaster", ce.Field)
	}
}

func TestWithForecasterOption(t *testing.T) {
	o := applyOptions(smiless.WithForecaster("transformer"))
	if o.Forecaster != "transformer" {
		t.Errorf("Forecaster = %q", o.Forecaster)
	}
	// Applied after WithControllerOptions, the family propagates into the
	// embedded controller options too.
	co := smiless.ControllerOptions{Seed: 1}
	o2 := applyOptions(smiless.WithControllerOptions(co), smiless.WithForecaster("arima"))
	if o2.Controller == nil || o2.Controller.Forecaster != "arima" {
		t.Error("WithForecaster did not propagate into explicit controller options")
	}
}

func TestWithForecasterRunReportsQuality(t *testing.T) {
	app := smiless.ImageQuery()
	tr := optionsTrace(4)
	st, err := smiless.Evaluate(smiless.SystemSMIless, app, tr, 2.0,
		smiless.WithSeed(4), smiless.WithForecaster("naive"))
	if err != nil {
		t.Fatal(err)
	}
	if st.ForecastName != "naive" {
		t.Errorf("ForecastName = %q, want naive", st.ForecastName)
	}
	if st.ForecastIT.Forecaster != "naive" || st.ForecastCount.Forecaster != "naive" {
		t.Errorf("quality reports not attributed: it=%q count=%q",
			st.ForecastIT.Forecaster, st.ForecastCount.Forecaster)
	}
	// The default run carries no forecaster attribution, so existing
	// consumers of Summary() see byte-identical output.
	def, err := smiless.Evaluate(smiless.SystemSMIless, app, tr, 2.0, smiless.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if def.ForecastName != "" {
		t.Errorf("default run ForecastName = %q, want empty", def.ForecastName)
	}
}
