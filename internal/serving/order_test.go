package serving

import (
	"reflect"
	"testing"

	"smiless/internal/simulator"
)

// runBoundaryArrivals sends one request exactly on each of the first n
// decision-window boundaries of a started runtime whose clock never fires.
// The test plays the timer up to each boundary k, then sets the clock onto k
// and calls Invoke: the tick at k is due and not yet run when Invoke takes
// the runtime's lock, so Invoke itself decides whether the tick or the
// arrival comes first.
func runBoundaryArrivals(t *testing.T, n int) (*simulator.RunStats, []int, []float64) {
	t.Helper()
	app := testChain([]float64{0.1}, 0.5)
	clk := &setClock{}
	rt, err := New(Config{App: app, SLA: 10, Window: 1, Clock: clk}, keepAliveDriver(1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rt.Start()
	defer rt.Close()
	// runBefore sets the clock onto each queued deadline before at and runs
	// what is due there, as the timer would.
	runBefore := func(at float64) {
		for {
			next, ok := rt.eng.NextAt()
			if !ok || next >= at {
				return
			}
			clk.now = next
			rt.onTimer()
		}
	}
	for k := 1; k <= n; k++ {
		runBefore(float64(k))
		clk.now = float64(k)
		mustInvoke(t, rt)
	}
	// Run up to the tick that closes the last window, and that tick.
	runBefore(float64(n + 1))
	clk.now = float64(n + 1)
	rt.onTimer()
	counts, arrivals := history(rt)
	return rt.Snapshot(), counts, arrivals
}

// TestArrivalOrderedAfterDueEvents pins the order InvokeWithDeadline
// documents: an arrival stamped t comes after every event due at or before t.
// A request sent exactly on a window boundary, while that boundary's tick is
// still queued, is therefore counted in the window that opens there, never
// in the one the tick closes — and the whole run is replay-deterministic.
func TestArrivalOrderedAfterDueEvents(t *testing.T) {
	const n = 200
	stats, counts, arrivals := runBoundaryArrivals(t, n)
	if len(arrivals) != n {
		t.Fatalf("%d arrivals logged, want %d", len(arrivals), n)
	}
	for i, at := range arrivals {
		if at != float64(i+1) {
			t.Fatalf("arrival %d stamped %v, want the boundary %d", i, at, i+1)
		}
	}
	// The tick at k+1 closes window k, so counts[k] is the arrival at k.
	if len(counts) != n+1 {
		t.Fatalf("%d windows closed, want %d", len(counts), n+1)
	}
	for w, c := range counts {
		want := 1
		if w == 0 {
			want = 0
		}
		if c != want {
			t.Errorf("window %d counted %d arrivals, want %d: the arrival on its boundary was ordered before the tick", w, c, want)
		}
	}
	if stats.Completed != n {
		t.Errorf("completed = %d, want %d", stats.Completed, n)
	}
	again, _, _ := runBoundaryArrivals(t, n)
	if !reflect.DeepEqual(stats, again) {
		t.Errorf("two identical runs diverged:\n%s\nvs\n%s", stats.Summary(), again.Summary())
	}
}
