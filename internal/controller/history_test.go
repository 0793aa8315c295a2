package controller

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"smiless/internal/apps"
	"smiless/internal/forecast"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/perfmodel"
)

// refEventTimes is the from-scratch reduction the incremental windowEvents
// series replaced, kept as the reference the differential tests compare
// against: the first arrival of each non-empty window, re-derived from
// arrival 0.
func refEventTimes(arr []float64, w float64) []float64 {
	var out []float64
	lastWin := -1
	for _, a := range arr {
		wi := int(a / w)
		if wi != lastWin {
			out = append(out, a)
			lastWin = wi
		}
	}
	return out
}

// refAlignedSeries is the from-scratch dual-input series for the IAT
// predictor (reference implementation, see refEventTimes).
func refAlignedSeries(arr []float64, counts []int, w float64) (iats, cnts []float64) {
	for i := 1; i < len(arr); i++ {
		iats = append(iats, arr[i]-arr[i-1])
		wi := int(arr[i] / w)
		if wi >= len(counts) {
			wi = len(counts) - 1
		}
		if wi >= 0 {
			cnts = append(cnts, float64(counts[wi]))
		} else {
			cnts = append(cnts, 0)
		}
	}
	return iats, cnts
}

// refQuantiles is the copy-and-sort-twice quantile refresh updateQuantiles
// replaced (reference implementation).
func refQuantiles(arr []float64, it, w float64) (low, high float64) {
	var gaps []float64
	start := len(arr) - 60
	if start < 1 {
		start = 1
	}
	for i := start; i < len(arr); i++ {
		gaps = append(gaps, arr[i]-arr[i-1])
	}
	if len(gaps) < 8 {
		low, high = it*0.3, it*3
	} else {
		low = mathx.Percentile(gaps, 10)
		high = mathx.Percentile(gaps, 99) * 1.3
	}
	if high < 2*w {
		high = 2 * w
	}
	if high > 180 {
		high = 180
	}
	return low, high
}

// refMovingIT is predictIT's moving-window estimate over the reference
// event series.
func refMovingIT(arr []float64) float64 {
	if len(arr) < 2 {
		return 10
	}
	tail := arr
	if len(tail) > 30 {
		tail = tail[len(tail)-30:]
	}
	mw := (tail[len(tail)-1] - tail[0]) / float64(len(tail)-1)
	if mw <= 0 || math.IsNaN(mw) || math.IsInf(mw, 0) {
		mw = 10
	}
	return mw
}

func lastN[T any](xs []T, n int) []T {
	if len(xs) > n {
		return xs[len(xs)-n:]
	}
	return xs
}

// recordingForecaster captures exactly what the controller streams into a
// forecaster role: every Update since the last reset and every Fit series.
type recordingForecaster struct {
	updates []forecast.Observation
	fits    [][]forecast.Observation
}

func (r *recordingForecaster) Name() string { return "recording" }
func (r *recordingForecaster) Fit(hist []forecast.Observation) error {
	r.fits = append(r.fits, append([]forecast.Observation(nil), hist...))
	return nil
}
func (r *recordingForecaster) Predict(horizon int) []float64 {
	out := make([]float64, horizon)
	for i := range out {
		out[i] = 1
	}
	return out
}
func (r *recordingForecaster) Update(obs forecast.Observation) { r.updates = append(r.updates, obs) }
func (r *recordingForecaster) Clone(int64) forecast.Forecaster { return &recordingForecaster{} }
func (r *recordingForecaster) reset()                          { r.updates, r.fits = nil, nil }

// windowScript is one differential scenario: arrivals replayed through a
// controller window by window.
type windowScript struct {
	name     string
	w        float64
	windows  int
	arrivals []float64
	// tickFirst logs an arrival stamped exactly k·w after tick k — the
	// order the live runtime produces when the event loop wins the lock —
	// instead of before it, the simulator's (at, seq) order.
	tickFirst bool
}

// replayScript drives a controller through sc and, at every window, compares
// everything the controller derived from its incremental history against the
// from-scratch reference reductions of the full logs.
func replayScript(t *testing.T, sc windowScript) {
	t.Helper()
	app := apps.ImageQuery()
	var itRec, cntRec *recordingForecaster
	opts := DefaultOptions(1)
	opts.TrainAfter, opts.RetrainEvery = 8, 40
	opts.NewForecaster = func(cfg forecast.Config) forecast.Forecaster {
		r := &recordingForecaster{}
		if cfg.Role == forecast.RoleInterArrival {
			itRec = r
		} else {
			cntRec = r
		}
		return r
	}
	drv := New(hardware.DefaultCatalog(), app.TrueProfiles(perfmodel.DefaultUncertainty), 2.0, opts)
	plane := newLogPlane(app, drv, sc.w)
	drv.Setup(plane)

	next, fedIAT, fedCnt := 0, 0, 0
	for k := 1; k <= sc.windows; k++ {
		end := float64(k) * sc.w
		from := next
		for next < len(sc.arrivals) && (sc.arrivals[next] < end || (!sc.tickFirst && sc.arrivals[next] == end)) {
			next++
		}
		now := plane.tick(sc.w, sc.arrivals[from:next]...)
		itRec.reset()
		cntRec.reset()
		wasActive := drv.fcActive
		drv.OnWindow(plane, now)

		refEv := refEventTimes(plane.arrivals, sc.w)
		if !slices.Equal(drv.events.times, refEv) {
			t.Fatalf("window %d: incremental events %v, from-scratch %v", k, drv.events.times, refEv)
		}
		if drv.events.seen != len(plane.arrivals) {
			t.Fatalf("window %d: cursor %d, arrival log %d", k, drv.events.seen, len(plane.arrivals))
		}
		iats, cnts := refAlignedSeries(refEv, plane.counts, sc.w)

		// Feed: exactly the new aligned pairs, covariates as of this window.
		wantIT := forecast.Obs(iats, cnts)[fedIAT:]
		fedIAT = len(iats)
		if !slices.Equal(itRec.updates, wantIT) {
			t.Fatalf("window %d: fed iat pairs %v, want %v", k, itRec.updates, wantIT)
		}
		var wantCnt []forecast.Observation
		for _, c := range plane.counts[fedCnt:] {
			wantCnt = append(wantCnt, forecast.Observation{Value: float64(c)})
		}
		fedCnt = len(plane.counts)
		if !slices.Equal(cntRec.updates, wantCnt) {
			t.Fatalf("window %d: fed counts %v, want %v", k, cntRec.updates, wantCnt)
		}

		// Refit: the ≤1500-gap / ≤3000-window tails, covariates recomputed now.
		if len(itRec.fits) > 1 || len(cntRec.fits) > 1 || len(itRec.fits) != len(cntRec.fits) {
			t.Fatalf("window %d: %d iat fits, %d count fits", k, len(itRec.fits), len(cntRec.fits))
		}
		if len(itRec.fits) == 1 {
			if want := forecast.Obs(lastN(iats, 1500), lastN(cnts, 1500)); !slices.Equal(itRec.fits[0], want) {
				t.Fatalf("window %d: iat fit series (len %d) differs from the from-scratch tail (len %d)", k, len(itRec.fits[0]), len(want))
			}
			hist := make([]float64, len(plane.counts))
			for i, c := range plane.counts {
				hist[i] = float64(c)
			}
			if want := forecast.Obs(lastN(hist, 3000), nil); !slices.Equal(cntRec.fits[0], want) {
				t.Fatalf("window %d: count fit series (len %d) differs from the from-scratch tail (len %d)", k, len(cntRec.fits[0]), len(want))
			}
		}

		// Estimates read off the series tail.
		if !wasActive && !drv.fcActive {
			if want := refMovingIT(refEv); drv.itMean != want {
				t.Fatalf("window %d: moving-window IT %v, want %v", k, drv.itMean, want)
			}
		}
		low, high := refQuantiles(refEv, drv.itMean, sc.w)
		if drv.itLow != low || drv.itHigh != high {
			t.Fatalf("window %d: quantiles (%v, %v), want (%v, %v)", k, drv.itLow, drv.itHigh, low, high)
		}
	}
	if next != len(sc.arrivals) {
		t.Fatalf("script replayed %d of %d arrivals", next, len(sc.arrivals))
	}
}

// randomScript draws a bursty trace with idle stretches; a share of the
// arrivals is snapped onto window boundaries.
func randomScript(seed int64, w float64, windows int, tickFirst bool) windowScript {
	r := mathx.NewRand(seed)
	var arr []float64
	horizon := float64(windows) * w
	for t := 0.0; ; {
		switch r.Intn(8) {
		case 0: // idle stretch: empty windows
			t += w * float64(2+r.Intn(12))
		case 1: // burst inside one window
			for i := r.Intn(6); i > 0 && t < horizon-w; i-- {
				arr = append(arr, t)
				t += w * r.Float64() / 8
			}
		case 2: // exactly on a boundary
			t = (math.Floor(t/w) + 1) * w
		default:
			t += w * r.Float64() * 1.5
		}
		if t >= horizon-w {
			break
		}
		arr = append(arr, t)
	}
	return windowScript{
		name:    fmt.Sprintf("random/seed=%d/w=%v/tickFirst=%t", seed, w, tickFirst),
		w:       w,
		windows: windows, arrivals: arr, tickFirst: tickFirst,
	}
}

// TestIncrementalHistoryMatchesFromScratch is the differential test for the
// incremental window-event series: bursts inside one window, empty windows,
// arrivals at exactly k·Window on either side of the tick, single-arrival
// traces and the 1500-gap / 3000-window refit tail cuts.
func TestIncrementalHistoryMatchesFromScratch(t *testing.T) {
	everyWindow := func(n int, w float64) []float64 {
		out := make([]float64, 0, 2*n)
		for i := 1; i < n; i++ {
			out = append(out, float64(i)*w+w/4)
			if i%7 == 0 {
				out = append(out, float64(i)*w+w/2)
			}
		}
		return out
	}
	scripts := []windowScript{
		{name: "no arrivals", w: 1, windows: 5},
		{name: "single arrival", w: 1, windows: 20, arrivals: []float64{3.5}},
		{name: "single arrival on a boundary", w: 1, windows: 20, arrivals: []float64{4}},
		{name: "bursts inside one window", w: 1, windows: 40, arrivals: []float64{10.1, 10.2, 10.3, 10.4, 20.5, 20.6}},
		{name: "empty windows between events", w: 1, windows: 200, arrivals: []float64{1.5, 40.25, 41.5, 120, 121.75, 190.5}},
		{name: "boundary arrivals before the tick", w: 2, windows: 60,
			arrivals: []float64{2, 4, 4, 5, 8, 8.5, 16, 18, 18, 18.1, 20, 30, 32, 34, 36, 38, 40, 42, 44, 100}},
		{name: "boundary arrivals after the tick", w: 2, windows: 60, tickFirst: true,
			arrivals: []float64{2, 4, 4, 5, 8, 8.5, 16, 18, 18, 18.1, 20, 30, 32, 34, 36, 38, 40, 42, 44, 100}},
		{name: "half-second windows", w: 0.5, windows: 120,
			arrivals: []float64{0.5, 0.75, 1, 1.5, 1.5, 3.25, 10, 10.5, 11, 11.5, 12, 12.5, 13, 13.5, 14, 30, 59}},
		{name: "tail cuts", w: 1, windows: 3300, arrivals: everyWindow(3290, 1)},
	}
	for seed := int64(1); seed <= 6; seed++ {
		scripts = append(scripts, randomScript(seed, []float64{0.5, 1, 2}[seed%3], 400, seed%2 == 0))
	}
	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) { replayScript(t, sc) })
	}
}

// refRecentGaps is the last quantileGaps gaps of the event series, sorted
// from scratch (reference for windowEvents.recentGaps).
func refRecentGaps(times []float64) []float64 {
	var gaps []float64
	for i := max(len(times)-quantileGaps, 1); i < len(times); i++ {
		gaps = append(gaps, times[i]-times[i-1])
	}
	slices.Sort(gaps)
	return gaps
}

// FuzzWindowEventsIsAFold: however the arrival log is cut into per-window
// deliveries, extending incrementally equals reducing it whole, and the
// sorted gap window equals the last quantileGaps gaps sorted from scratch
// after every delivery.
func FuzzWindowEventsIsAFold(f *testing.F) {
	f.Add([]byte{3, 0, 0, 200, 8, 8, 0, 255, 1}, uint8(3), uint8(4))
	f.Add([]byte{0, 0, 0, 0}, uint8(1), uint8(1))
	f.Add([]byte{}, uint8(2), uint8(0))
	// Periodic arrivals: every gap equal, so each slide deletes one of 60
	// duplicates.
	f.Add(bytes.Repeat([]byte{16}, 150), uint8(5), uint8(3))
	// A few distinct gaps, each repeated many times: deletions of a
	// duplicated value with other values on both sides.
	f.Add(bytes.Repeat([]byte{16, 32, 16, 48, 0, 24}, 40), uint8(7), uint8(3))
	// Fewer than 8 gaps.
	f.Add([]byte{20, 40, 20, 60, 20}, uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, steps []byte, chunk, quarterWindows uint8) {
		w := float64(quarterWindows%8+1) / 4
		var arr []float64
		at := 0.0
		for _, s := range steps {
			at += float64(s) / 16 // multiples of 1/16 land on window boundaries often
			arr = append(arr, at)
		}
		var ev windowEvents
		for cut := 0; cut < len(arr); {
			cut += int(chunk%16) + 1
			if cut > len(arr) {
				cut = len(arr)
			}
			ev.extend(arr[:cut], w)
			ev.extend(arr[:cut], w) // an idle window: nothing new
			if want := refRecentGaps(ev.times); !slices.Equal(ev.recentGaps(), want) {
				t.Fatalf("after %d arrivals: sorted window %v, from scratch %v", cut, ev.recentGaps(), want)
			}
		}
		want := refEventTimes(arr, w)
		if !slices.Equal(ev.times, want) {
			t.Fatalf("incremental %v, whole %v", ev.times, want)
		}
		if ev.gaps() != max(len(want)-1, 0) {
			t.Fatalf("gaps() = %d for %d events", ev.gaps(), len(want))
		}
	})
}
