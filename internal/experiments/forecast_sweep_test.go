package experiments

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"smiless/internal/forecast"
	"smiless/internal/simulator"
	"smiless/internal/trace"
)

func TestPredictorSweepDeterministic(t *testing.T) {
	p := PredictorSweepParams{Seed: 3, Horizon: 400, Forecasters: []string{"naive", "fip"}}
	a, err := PredictorSweep(p)
	if err != nil {
		t.Fatalf("PredictorSweep: %v", err)
	}
	b, err := PredictorSweep(p)
	if err != nil {
		t.Fatalf("PredictorSweep: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("sweep is not replay-deterministic")
	}
	if len(a.Traces) != 3 {
		t.Fatalf("traces = %v, want diurnal/bursty/adversarial", a.Traces)
	}
	for _, tn := range a.Traces {
		for _, name := range p.Forecasters {
			rep, ok := a.Reports[tn][name]
			if !ok {
				t.Fatalf("missing report %s/%s", tn, name)
			}
			if rep.Samples[0] == 0 {
				t.Errorf("%s/%s scored no one-step samples", tn, name)
			}
		}
	}
	s := a.Table().String()
	for _, want := range []string{"diurnal", "bursty", "adversarial", "naive", "fip", "upper_viol"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestPredictorSweepUnknownName(t *testing.T) {
	_, err := PredictorSweep(PredictorSweepParams{Seed: 1, Horizon: 300, Forecasters: []string{"bogus"}})
	var ue *forecast.UnknownError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want *forecast.UnknownError", err)
	}
}

func TestRunUnknownForecasterTypedError(t *testing.T) {
	tr := SmoothTrace(1, 300)
	p := RunParams{App: AppByName("WL2"), SLA: 2, Seed: 1, Forecaster: "bogus"}
	_, err := Run(SysSMIless, p, tr)
	var ce *simulator.ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("Run err = %v, want *simulator.ConfigError", err)
	}
	if ce.Field != "forecaster" {
		t.Errorf("ConfigError.Field = %q, want forecaster", ce.Field)
	}
	if _, err := NewDriver(SysSMIless, p); !errors.As(err, &ce) {
		t.Errorf("NewDriver err = %v, want *simulator.ConfigError", err)
	}
}

// TestForecasterTransformerServes runs the full simulated serving loop with
// the attention forecaster behind both predictor roles: it must activate,
// report quality, and replay byte-identically.
func TestForecasterTransformerServes(t *testing.T) {
	r := newRand(11)
	tr := trace.Diurnal(r, 2.0, 0.8, 300, 900)
	p := RunParams{App: AppByName("WL2"), SLA: 2, Seed: 11, Forecaster: "transformer"}
	a := RunSystem(SysSMIless, p, tr)
	if a.ForecastName != "transformer" {
		t.Fatalf("ForecastName = %q, want transformer", a.ForecastName)
	}
	if a.ForecastCount.Samples[0] == 0 && a.ForecastIT.Samples[0] == 0 {
		t.Error("forecaster never activated: no quality samples in either role")
	}
	if a.Completed == 0 || a.TotalCost <= 0 {
		t.Errorf("run incomplete: %+v", a)
	}
	b := RunSystem(SysSMIless, p, trace.Diurnal(newRand(11), 2.0, 0.8, 300, 900))
	if !reflect.DeepEqual(a, b) {
		t.Error("transformer-backed run is not replay-deterministic")
	}
}
