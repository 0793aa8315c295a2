package controller

import (
	"slices"

	"smiless/internal/forecast"
)

// windowEvents is the controller's incremental reduction of the substrate's
// arrival log to window-level events: the first arrival time in each
// non-empty window. The paper defines inter-arrival time at this granularity
// (§IV-B2: "the time interval between two consecutive non-zero predictions
// of invocation numbers"), which keeps a burst of many requests inside one
// window from reading as a rate change.
//
// The arrival log is append-only, so the series is a left fold over it:
// extend consumes only the arrivals logged since the previous call, and
// every consumer reads a tail of times. Per-window cost is therefore
// O(new arrivals), however long the run. The zero value is an empty series.
type windowEvents struct {
	// seen is how many entries of the arrival log have been reduced.
	seen int
	// lastWin is the window index of the latest event (unset while times is
	// empty).
	lastWin int
	// times holds one entry per non-empty window.
	times []float64
	// recent holds the last quantileGaps gaps ascending, its first nRecent
	// entries valid: the window updateQuantiles ranks, kept sorted as the
	// fold goes rather than sorted per window.
	recent  [quantileGaps]float64
	nRecent int
}

// extend reduces arrivals[seen:] — the part of the substrate's arrival log
// not yet consumed — into the series. w is the decision-window length.
func (e *windowEvents) extend(arrivals []float64, w float64) {
	for _, a := range arrivals[e.seen:] {
		wi := int(a / w)
		if len(e.times) == 0 || wi != e.lastWin {
			e.times = append(e.times, a)
			e.lastWin = wi
			e.slideRecent()
		}
	}
	e.seen = len(arrivals)
}

// slideRecent moves the sorted gap window onto the gap the latest event
// closed: the gap that leaves the window is deleted and the new one
// inserted, both found by binary search. A gap is recomputed with the same
// subtraction each time, so the deleted value is found exactly.
func (e *windowEvents) slideRecent() {
	n := len(e.times)
	if n < 2 {
		return
	}
	if k := n - 2 - quantileGaps; k >= 0 {
		at, _ := slices.BinarySearch(e.recent[:e.nRecent], e.times[k+1]-e.times[k])
		copy(e.recent[at:], e.recent[at+1:e.nRecent])
		e.nRecent--
	}
	g := e.times[n-1] - e.times[n-2]
	at, _ := slices.BinarySearch(e.recent[:e.nRecent], g)
	copy(e.recent[at+1:e.nRecent+1], e.recent[at:e.nRecent])
	e.recent[at] = g
	e.nRecent++
}

// recentGaps returns the last quantileGaps gaps (all of them when there are
// fewer), ascending. The slice aliases the window.
func (e *windowEvents) recentGaps() []float64 { return e.recent[:e.nRecent] }

// gaps is the length of the inter-event gap series.
func (e *windowEvents) gaps() int {
	if len(e.times) == 0 {
		return 0
	}
	return len(e.times) - 1
}

// tail returns the last n events (all of them when there are fewer).
func (e *windowEvents) tail(n int) []float64 {
	if len(e.times) > n {
		return e.times[len(e.times)-n:]
	}
	return e.times
}

// observation returns entry i of the dual-input series for the IAT
// predictor: the gap that event i+1 closed, with the arrival count of that
// event's window as covariate. The window index is clamped to the latest
// completed window of counts as it stands at call time, so an arrival
// logged at exactly k·w ahead of tick k reads counts[k-1] when it is fed
// and counts[k] in any later refit.
func (e *windowEvents) observation(i int, counts []int, w float64) forecast.Observation {
	t := e.times[i+1]
	wi := int(t / w)
	if wi >= len(counts) {
		wi = len(counts) - 1
	}
	obs := forecast.Observation{Value: t - e.times[i]}
	if wi >= 0 {
		obs.Cov = float64(counts[wi])
	}
	return obs
}
