package smiless_test

import (
	"math/rand"
	"strings"
	"testing"

	"smiless"
)

func optionsTrace(seed int64) *smiless.Trace {
	r := rand.New(rand.NewSource(seed))
	return smiless.PoissonTrace(r, 0.05, 300)
}

func applyOptions(opts ...smiless.Option) smiless.EvaluateOptions {
	var o smiless.EvaluateOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

func TestEvaluateErrorPaths(t *testing.T) {
	app := smiless.ImageQuery()
	tr := optionsTrace(1)
	if _, err := smiless.Evaluate(smiless.SystemSMIless, nil, tr, 2.0); err == nil {
		t.Error("nil application should error")
	}
	if _, err := smiless.Evaluate(smiless.SystemSMIless, app, nil, 2.0); err == nil {
		t.Error("nil trace should error")
	}
	if _, err := smiless.Evaluate(smiless.SystemSMIless, app, tr, 0); err == nil {
		t.Error("zero SLA should error")
	}
	if _, err := smiless.Evaluate(smiless.SystemSMIless, app, tr, -1); err == nil {
		t.Error("negative SLA should error")
	}
	_, err := smiless.Evaluate(smiless.SystemName("NoSuchSystem"), app, tr, 2.0)
	if err == nil {
		t.Fatal("unknown system should error")
	}
	if !strings.Contains(err.Error(), "NoSuchSystem") {
		t.Errorf("error %q does not name the unknown system", err)
	}
}

func TestWithRecorderCapturesSpans(t *testing.T) {
	app := smiless.ImageQuery()
	tr := optionsTrace(4)
	rec := smiless.NewRecorder(app)
	traced, err := smiless.Evaluate(smiless.SystemSMIless, app, tr, 2.0,
		smiless.WithSeed(4), smiless.WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Breakdowns()) != traced.Completed {
		t.Errorf("recorder captured %d breakdowns for %d completed requests",
			len(rec.Breakdowns()), traced.Completed)
	}
	// Tracing must be a pure observer.
	bare, err := smiless.Evaluate(smiless.SystemSMIless, smiless.ImageQuery(), tr, 2.0, smiless.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if bare.TotalCost != traced.TotalCost || bare.Completed != traced.Completed {
		t.Errorf("attaching a recorder changed the run: cost %v vs %v", bare.TotalCost, traced.TotalCost)
	}
}

func TestWithFaultsInjects(t *testing.T) {
	app := smiless.ImageQuery()
	tr := optionsTrace(5)
	plan := &smiless.FaultPlan{Seed: 11}
	plan.Default = smiless.FaultRates{ExecFail: 0.3}
	st, err := smiless.Evaluate(smiless.SystemSMIless, app, tr, 2.0,
		smiless.WithSeed(5), smiless.WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	if st.ExecFailures == 0 {
		t.Error("30% exec-fail plan injected no failures")
	}
	clean, err := smiless.Evaluate(smiless.SystemSMIless, smiless.ImageQuery(), tr, 2.0, smiless.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if clean.ExecFailures != 0 {
		t.Errorf("fault-free run reports %d exec failures", clean.ExecFailures)
	}
}

func TestOptionComposition(t *testing.T) {
	co := smiless.DefaultControllerOptions(42)
	o := applyOptions(smiless.WithControllerOptions(co), smiless.WithSeed(9), smiless.WithLSTM(false))
	if o.Seed != 9 || o.Controller.Seed != 9 {
		t.Errorf("WithSeed after WithControllerOptions did not win: %d / %d", o.Seed, o.Controller.Seed)
	}
	if o.UseLSTM || o.Controller.UseLSTM {
		t.Error("WithLSTM(false) after WithControllerOptions did not win")
	}
	// Applied the other way around, the controller configuration wins.
	o = applyOptions(smiless.WithSeed(9), smiless.WithControllerOptions(co))
	if o.Seed != 42 || !o.UseLSTM {
		t.Errorf("WithControllerOptions applied last should adopt its values, got seed %d lstm %v", o.Seed, o.UseLSTM)
	}
	o = applyOptions(smiless.WithWindow(4), smiless.WithFaults(nil))
	if o.Window != 4 || o.Faults != nil || o.Recorder != nil {
		t.Errorf("unexpected options state: %+v", o)
	}
}

func TestNewSimulatorOptions(t *testing.T) {
	app := smiless.Pipeline(2)
	profiles := app.TrueProfiles(3)
	rec := smiless.NewRecorder(app)
	drv := smiless.NewSMIless(smiless.DefaultCatalog(), profiles, 3.0, smiless.WithSeed(1))
	sim, err := smiless.NewSimulator(app, drv, 3.0, smiless.WithSeed(1), smiless.WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(&smiless.Trace{Horizon: 120, Arrivals: []float64{10, 50, 90}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 3 {
		t.Errorf("completed %d/3", st.Completed)
	}
	if len(rec.Breakdowns()) != 3 {
		t.Errorf("recorder captured %d/3 requests", len(rec.Breakdowns()))
	}
	if _, err := smiless.NewSimulator(nil, drv, 3.0); err == nil {
		t.Error("nil app should error")
	}
	if _, err := smiless.NewSimulator(app, nil, 3.0); err == nil {
		t.Error("nil driver should error")
	}
}
