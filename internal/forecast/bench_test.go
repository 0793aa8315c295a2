package forecast

import (
	"fmt"
	"testing"
)

// benchSeries is the shared fixture: a 400-step integer count series, long
// enough that every family trains and the LSTM pair sees a realistic
// in-loop refit size.
func benchSeries() []Observation { return counts(400) }

// BenchmarkForecastFit measures one first fit per family — a new instance
// trained from its seed, the cost the controller pays once at TrainAfter.
// Every iteration builds its own instance (a second Fit on a fitted LSTM is a
// warm refit, timed by BenchmarkForecastRefit), so the training-free rows are
// an instance plus its history array. ns/op and allocs/op feed
// BENCH_forecast.json via scripts/bench_forecast.sh and gate regressions in CI.
func BenchmarkForecastFit(b *testing.B) {
	hist := benchSeries()
	for _, name := range Names() {
		b.Run(fmt.Sprintf("family=%s", name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := MustNew(name, Config{Seed: 1, Role: RoleCount, Budget: BudgetOnline})
				if err := f.Fit(hist); err != nil {
					b.Fatalf("Fit: %v", err)
				}
			}
		})
	}
}

// BenchmarkForecastRefit measures one in-loop refit of a fitted instance, as
// the controller pays at RetrainEvery boundaries and on drift trips: 32 new
// observations (the drift detector's burn-in, the soonest a refit can follow
// a fit) and a Fit on the tail they end.
func BenchmarkForecastRefit(b *testing.B) {
	hist := benchSeries()
	for _, name := range Names() {
		b.Run(fmt.Sprintf("family=%s", name), func(b *testing.B) {
			f := MustNew(name, Config{Seed: 1, Role: RoleCount, Budget: BudgetOnline})
			if err := f.Fit(hist); err != nil {
				b.Fatalf("Fit: %v", err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, o := range hist[len(hist)-DefaultDriftMinSamples:] {
					f.Update(o)
				}
				if err := f.Fit(hist); err != nil {
					b.Fatalf("Fit: %v", err)
				}
			}
		})
	}
}

// BenchmarkForecastPredict measures the per-window forecast cost at the
// controller's scoring horizon — the hot path, paid every decision window
// in both substrates. Nothing is observed between calls, so the lstm row is
// its remembered forecast; its roll-forward is timed by the Observe row.
func BenchmarkForecastPredict(b *testing.B) {
	hist := benchSeries()
	for _, name := range Names() {
		b.Run(fmt.Sprintf("family=%s", name), func(b *testing.B) {
			f := MustNew(name, Config{Seed: 1, Role: RoleCount, Budget: BudgetOnline})
			if err := f.Fit(hist); err != nil {
				b.Fatalf("Fit: %v", err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Predict(4)
			}
		})
	}
}

// BenchmarkForecastObserve measures one Online step — forecast
// registration, quality scoring, drift update, model append — the fixed
// overhead the harness adds per observed window.
func BenchmarkForecastObserve(b *testing.B) {
	hist := benchSeries()
	for _, name := range Names() {
		b.Run(fmt.Sprintf("family=%s", name), func(b *testing.B) {
			on := NewOnline(MustNew(name, Config{Seed: 1, Role: RoleCount, Budget: BudgetOnline}), 4)
			if err := on.Refit(hist); err != nil {
				b.Fatalf("Refit: %v", err)
			}
			obs := hist[len(hist)-1]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				on.Forecast()
				on.Observe(obs)
			}
		})
	}
}
