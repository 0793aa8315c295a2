package controller

import (
	"fmt"
	"runtime"
	"testing"

	"smiless/internal/apps"
	"smiless/internal/hardware"
	"smiless/internal/perfmodel"
	"smiless/internal/simulator"
)

// logPlane is a ControlPlane whose history logs a test fills entry by
// entry; every other method is a real, never-run Simulator. It hands out the
// same cap-clipped views the substrates do.
type logPlane struct {
	simulator.ControlPlane
	arrivals []float64
	counts   []int
	now      float64
}

func newLogPlane(app *apps.Application, drv simulator.Driver, w float64) *logPlane {
	return &logPlane{ControlPlane: simulator.MustNew(simulator.Config{App: app, SLA: 2.0, Window: w, Seed: 1}, drv)}
}

func (p *logPlane) Now() float64            { return p.now }
func (p *logPlane) ArrivalTimes() []float64 { return p.arrivals[:len(p.arrivals):len(p.arrivals)] }
func (p *logPlane) CountsHistory() []int    { return p.counts[:len(p.counts):len(p.counts)] }

// tick logs the arrivals of one window, closes it and returns its end time.
func (p *logPlane) tick(w float64, arrivals ...float64) float64 {
	p.arrivals = append(p.arrivals, arrivals...)
	p.counts = append(p.counts, len(arrivals))
	p.now = float64(len(p.counts)) * w
	return p.now
}

// denseWindows drives the control_dense configuration (DefaultOptions, naive
// forecaster unless a row names another) one window at a time: one arrival
// per one-second window, placed by the arrival rule.
type denseWindows struct {
	drv     *SMIless
	plane   *logPlane
	arrival func(window int) float64
}

// steadyArrival offsets window i's arrival on a ten-window cycle. The cycle
// divides the 60-gap quantile window, so the controller sees the same gap
// multiset every window and its behaviour (and allocation) is the same at
// every history length — what is left to differ is the cost of the history
// itself.
func steadyArrival(i int) float64 { return float64(i) + 0.09*float64(i*7%10) }

// replanArrival puts even windows' arrivals late and odd windows' early, so
// the last gap, which the naive forecaster predicts as the mean
// inter-arrival time, alternates between 0.1 s and 1.9 s: every window moves
// the operating point past the controller's 3x re-plan threshold, between
// the same two points.
func replanArrival(i int) float64 {
	if i%2 == 1 {
		return float64(i) + 0.05
	}
	return float64(i) + 0.95
}

// newDenseWindows returns a controller with history windows already behind
// it: the logs are filled first and one OnWindow catches the controller up,
// so what step measures afterwards is the steady per-window cost at that
// history length. room is how many further windows the logs have capacity
// for, keeping the harness's own slice growth out of the measurement.
func newDenseWindows(history, room int) *denseWindows {
	return newWindows(history, room, "naive", steadyArrival)
}

// newWindows is newDenseWindows with the given forecaster and arrival rule.
func newWindows(history, room int, forecaster string, arrival func(int) float64) *denseWindows {
	app := apps.ImageQuery()
	opts := DefaultOptions(1)
	opts.Forecaster = forecaster
	d := &denseWindows{drv: New(hardware.DefaultCatalog(), app.TrueProfiles(perfmodel.DefaultUncertainty), 2.0, opts), arrival: arrival}
	d.plane = newLogPlane(app, d.drv, 1)
	d.plane.arrivals = make([]float64, 0, history+room)
	d.plane.counts = make([]int, 0, history+room)
	d.drv.Setup(d.plane)
	for i := 0; i < history-1; i++ {
		d.log()
	}
	d.step()
	return d
}

func (d *denseWindows) log() float64 {
	return d.plane.tick(1, d.arrival(len(d.plane.counts)))
}

// step closes one more window and runs the controller on it.
func (d *denseWindows) step() { d.drv.OnWindow(d.plane, d.log()) }

// BenchmarkControllerWindow is the per-window cost of the control path
// (ns/op = ns/window, B/op = B/window) with 1k, 16k and 128k arrivals of
// history behind it. The three rows should read alike: the controller
// consumes only the arrivals logged since the previous window.
func BenchmarkControllerWindow(b *testing.B) {
	if testing.Short() {
		b.Skip("benchmark skipped in -short mode")
	}
	for _, history := range []int{1_000, 16_000, 128_000} {
		b.Run(fmt.Sprintf("history=%dk", history/1000), func(b *testing.B) {
			d := newDenseWindows(history, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.step()
			}
		})
	}
}

// windowCost measures mallocs and bytes per OnWindow at the given history.
func windowCost(history int) (allocs, bytes float64) {
	const settle, measured = 64, 256
	d := newDenseWindows(history, settle+measured)
	for i := 0; i < settle; i++ {
		d.step()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < measured; i++ {
		d.step()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / measured, float64(after.TotalAlloc-before.TotalAlloc) / measured
}

// TestWindowCostDoesNotGrowWithHistory guards the O(new arrivals) shape of
// the control window: allocation per OnWindow with 16k arrivals of history
// stays within a small constant of that with 1k. A per-window copy or
// rescan of the full history (8 B per arrival per copy) fails this by two
// orders of magnitude; the slack covers the amortised regrowth of the event
// series and the run-to-run position of a refit.
func TestWindowCostDoesNotGrowWithHistory(t *testing.T) {
	const slackAllocs, slackBytes = 1, 2048
	smallAllocs, smallBytes := windowCost(1_000)
	largeAllocs, largeBytes := windowCost(16_000)
	t.Logf("per window: %.1f allocs / %.0f B at 1k history, %.1f allocs / %.0f B at 16k", smallAllocs, smallBytes, largeAllocs, largeBytes)
	if largeAllocs > smallAllocs+slackAllocs {
		t.Errorf("allocs per window grew with history: %.1f at 16k vs %.1f at 1k", largeAllocs, smallAllocs)
	}
	if largeBytes > smallBytes+slackBytes {
		t.Errorf("bytes per window grew with history: %.0f at 16k vs %.0f at 1k", largeBytes, smallBytes)
	}
}

// TestSteadyWindowAllocatesNothing pins the decision window's allocation
// budget at zero: once the controller has planned and its buffers have
// reached their high-water marks, a window reads the graph's layout,
// forecasts into the predictor's own buffers and updates the run's quality
// report in place, at any history length. Two rows add the work a window
// may do on top: one re-plans in every window, alternating between two
// operating points, and one forecasts with the LSTM family (its windows do
// not refit; a refit trains, which allocates). AllocsPerRun counts whole
// allocations per window, so the amortised regrowth of the history series
// themselves (a few per thousand windows) reads as zero while any
// per-window allocation reads as one.
func TestSteadyWindowAllocatesNothing(t *testing.T) {
	if allocsInstrumented {
		t.Skip("race and invariant builds allocate inside instrumentation")
	}
	const settle, measured = 64, 256
	for _, row := range []struct {
		name       string
		history    int
		forecaster string
		arrival    func(int) float64
	}{
		{"steady-1k", 1_000, "naive", steadyArrival},
		{"steady-16k", 16_000, "naive", steadyArrival},
		{"replan", 1_000, "naive", replanArrival},
		{"lstm", 1_000, "lstm", steadyArrival},
	} {
		d := newWindows(row.history, settle+measured+1, row.forecaster, row.arrival)
		for i := 0; i < settle; i++ {
			d.step()
		}
		refits := d.drv.itFc.Refits() + d.drv.cntFc.Refits()
		replans := 0
		allocs := testing.AllocsPerRun(measured, func() {
			before := d.drv.planITMean
			d.step()
			if d.drv.planITMean != before { //lint:allow floateq counts a re-plan by the operating point it moved to
				replans++
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per window, want 0", row.name, allocs)
		}
		if n := d.drv.itFc.Refits() + d.drv.cntFc.Refits(); n != refits {
			t.Errorf("%s: fixture: %d refits during the measured windows", row.name, n-refits)
		}
		if row.name == "replan" && replans != measured+1 {
			t.Errorf("%s: fixture: %d of %d windows re-planned", row.name, replans, measured+1)
		}
	}
}
