package simulator

import (
	"slices"
	"testing"

	"smiless/internal/apps"
	"smiless/internal/trace"
)

// The engine hands drivers its history logs as views, not copies: each view
// shares the log's array but is cap-clipped, so a driver's append lands in a
// fresh array and never in the log. What the driver reads through the views
// is checked against both front ends in internal/serving.
func TestHistoryViewsAreClipped(t *testing.T) {
	var copied, unclipped int
	d := &scripted{dir: keepAlive(30), onWindow: func(cp ControlPlane, _ int) {
		e := cp.(*Engine)
		arr, counts := e.ArrivalTimes(), e.CountsHistory()
		if len(arr) > 0 && &arr[0] != &e.arrivalTimes[0] || len(counts) > 0 && &counts[0] != &e.counts[0] {
			copied++
		}
		if cap(arr) != len(arr) || cap(counts) != len(counts) {
			unclipped++
		}
		_, _ = append(arr, -1), append(counts, -1)
	}}
	tr := &trace.Trace{Horizon: 20, Arrivals: []float64{0.5, 1.5, 1.6, 4.2, 9.9, 10, 15.5}}
	sim := MustNew(Config{App: apps.Pipeline(2), SLA: 10, Seed: 1}, d)
	if st := sim.MustRun(tr); st.Completed != tr.Len() {
		t.Fatalf("completed %d/%d", st.Completed, tr.Len())
	}
	if copied > 0 || unclipped > 0 {
		t.Fatalf("history views were copies in %d windows and exposed spare capacity in %d", copied, unclipped)
	}
	if !slices.Equal(sim.ArrivalTimes(), tr.Arrivals) || slices.Contains(sim.CountsHistory(), -1) {
		t.Fatalf("a driver's append reached the logs: arrivals %v, counts %v", sim.ArrivalTimes(), sim.CountsHistory())
	}
}
