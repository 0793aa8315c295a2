package serving

import (
	"reflect"
	"runtime"
	"testing"

	"smiless/internal/controller"
	"smiless/internal/forecast"
	"smiless/internal/hardware"
	"smiless/internal/perfmodel"
	"smiless/internal/simulator"
)

// forecastOpts is a controller configuration whose forecasters activate
// quickly enough for a fake-clock test: train after 10 arrivals (the
// 64-window inter-arrival floor still applies) and never on schedule again,
// so any re-planning behaviour past activation runs off the forecaster
// interface alone.
func forecastOpts(name string) controller.Options {
	return controller.Options{
		UseLSTM:      true,
		Forecaster:   name,
		TrainAfter:   10,
		RetrainEvery: 100000,
		SLAMargin:    0.7,
		Seed:         3,
	}
}

// runForecastServing boots the live runtime on a fake clock with a real
// SMIless controller and serves 70 requests spaced 2 model seconds apart —
// enough window-level arrival events (69 > 64) for the Online Predictor to
// activate mid-run and re-plan off forecasts.
func runForecastServing(t *testing.T, opts controller.Options) *simulator.RunStats {
	t.Helper()
	app := testChain([]float64{0.1}, 0.5)
	profiles := app.TrueProfiles(perfmodel.DefaultUncertainty)
	drv := controller.New(hardware.DefaultCatalog(), profiles, 10, opts)
	rt, fake := newTestRuntime(t, Config{App: app, SLA: 10, Window: 1}, drv)
	defer rt.Close()
	for i := 0; i < 70; i++ {
		ch := mustInvoke(t, rt)
		res := await(t, rt, fake, ch)
		if res.Failed {
			t.Fatalf("request %d failed", i)
		}
		next := float64(i+1) * 2
		stepUntil(t, rt, fake, func() bool { return fake.Now() >= next })
	}
	// The clock stands on the last window boundary: let the loop handle that
	// tick, or the snapshot holds one scored forecast more or less depending
	// on which goroutine runs first.
	stepUntil(t, rt, fake, rt.Quiesced)
	return rt.Snapshot()
}

// TestServingForecasterActivates runs the live decision loop with the
// persistence family: the quality harness must score real forecasts in both
// predictor roles and attribute them to the selected family.
func TestServingForecasterActivates(t *testing.T) {
	st := runForecastServing(t, forecastOpts("naive"))
	if st.ForecastName != "naive" {
		t.Fatalf("ForecastName = %q, want naive", st.ForecastName)
	}
	if st.ForecastIT.Samples[0] == 0 {
		t.Error("inter-arrival forecasts were never scored")
	}
	if st.ForecastCount.Samples[0] == 0 {
		t.Error("count forecasts were never scored")
	}
	if st.ForecastIT.Refits < 1 || st.ForecastCount.Refits < 1 {
		t.Errorf("refits = %d/%d, want >= 1 in both roles",
			st.ForecastIT.Refits, st.ForecastCount.Refits)
	}
	if st.Completed != 70 {
		t.Errorf("completed = %d, want 70", st.Completed)
	}
}

// TestServingRegistryMatchesLegacy pins the serving substrate to the same
// compatibility contract as the simulator: naming the default family
// explicitly must leave the whole run — directives, latencies, cost,
// forecast quality — byte-identical to the legacy UseLSTM configuration.
func TestServingRegistryMatchesLegacy(t *testing.T) {
	if testing.Short() {
		t.Skip("two LSTM-backed serving runs; skipped in -short")
	}
	legacy := runForecastServing(t, forecastOpts(""))
	named := runForecastServing(t, forecastOpts("lstm"))
	if legacy.ForecastName != "lstm" || named.ForecastName != "lstm" {
		t.Fatalf("forecast names = %q/%q, want lstm/lstm", legacy.ForecastName, named.ForecastName)
	}
	if !reflect.DeepEqual(legacy, named) {
		t.Errorf("registry-selected lstm diverged from legacy serving run:\n%s\nvs\n%s",
			legacy.Summary(), named.Summary())
	}
}

// TestServingTransformerReplans serves the same schedule with the attention
// forecaster: the run must complete, publish quality stats, and replay
// byte-identically across runtimes.
func TestServingTransformerReplans(t *testing.T) {
	a := runForecastServing(t, forecastOpts("transformer"))
	if a.ForecastName != "transformer" {
		t.Fatalf("ForecastName = %q, want transformer", a.ForecastName)
	}
	if a.ForecastIT.Samples[0] == 0 && a.ForecastCount.Samples[0] == 0 {
		t.Error("transformer never scored a forecast")
	}
	b := runForecastServing(t, forecastOpts("transformer"))
	if !reflect.DeepEqual(a, b) {
		t.Error("transformer-backed serving run is not replay-deterministic")
	}
}

// TestSnapshotKeepsForecastReports: a snapshot is a deep copy, so windows
// that tick after it must not move its forecast-quality slices, although
// the controller rewrites the live reports in place every window. A reader
// walks the snapshot while the runtime keeps serving, so under -race a slice
// shared with the live report is also a reported race.
func TestSnapshotKeepsForecastReports(t *testing.T) {
	app := testChain([]float64{0.1}, 0.5)
	profiles := app.TrueProfiles(perfmodel.DefaultUncertainty)
	drv := controller.New(hardware.DefaultCatalog(), profiles, 10, forecastOpts("naive"))
	rt, fake := newTestRuntime(t, Config{App: app, SLA: 10, Window: 1}, drv)
	defer rt.Close()
	serve := func(from, to int) {
		for i := from; i < to; i++ {
			if res := await(t, rt, fake, mustInvoke(t, rt)); res.Failed {
				t.Fatalf("request %d failed", i)
			}
			next := float64(i+1) * 2
			stepUntil(t, rt, fake, func() bool { return fake.Now() >= next })
		}
		stepUntil(t, rt, fake, rt.Quiesced)
	}
	serve(0, 70)
	snap := rt.Snapshot()
	it, count := snap.ForecastIT.Clone(), snap.ForecastCount.Clone()

	stop, done := make(chan struct{}), make(chan float64)
	go func() {
		sum := 0.0
		for {
			select {
			case <-stop:
				done <- sum
				return
			default:
			}
			for _, r := range []*forecast.QualityReport{&snap.ForecastIT, &snap.ForecastCount} {
				for h := range r.MAE {
					sum += r.MAE[h] + r.SMAPE[h] + float64(r.Samples[h])
				}
			}
			runtime.Gosched()
		}
	}()
	serve(70, 90)
	close(stop)
	<-done

	if !reflect.DeepEqual(snap.ForecastIT, it) || !reflect.DeepEqual(snap.ForecastCount, count) {
		t.Errorf("snapshot forecast reports moved after later windows:\n it    %+v -> %+v\n count %+v -> %+v",
			it, snap.ForecastIT, count, snap.ForecastCount)
	}
	if now := rt.Snapshot(); now.ForecastCount.Samples[0] == count.Samples[0] {
		t.Fatal("no count forecast was scored after the snapshot; the test shows nothing")
	}
}
