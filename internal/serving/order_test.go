package serving

import (
	"reflect"
	"testing"

	"smiless/internal/simulator"
)

// runBoundaryArrivals sends one request exactly on each of the first n
// decision-window boundaries of a fake-clock runtime, without waiting for
// the scheduler loop to handle the window tick first: the clock is advanced
// onto the boundary, which wakes the loop, and Invoke is called at once, so
// the two race for the runtime's lock.
func runBoundaryArrivals(t *testing.T, n int) (*simulator.RunStats, []int, []float64) {
	t.Helper()
	app := testChain([]float64{0.1}, 0.5)
	rt, fake := newTestRuntime(t, Config{App: app, SLA: 10, Window: 1}, keepAliveDriver(1))
	defer rt.Close()
	// quiesceBefore handles every event due before model time at and leaves
	// the loop asleep on its timer for at.
	quiesceBefore := func(at float64) {
		stepUntil(t, rt, fake, func() bool {
			next, ok := fake.NextDeadline()
			return ok && next >= at
		})
	}
	for k := 1; k <= n; k++ {
		quiesceBefore(float64(k))
		fake.AdvanceToNext()
		mustInvoke(t, rt)
	}
	// Step onto the tick that closes the last window and no further, then
	// let the runtime settle there.
	quiesceBefore(float64(n + 1))
	fake.AdvanceToNext()
	stepUntil(t, rt, fake, func() bool { return true })
	counts, arrivals := history(rt)
	return rt.Snapshot(), counts, arrivals
}

// TestArrivalOrderedAfterDueEvents pins the order InvokeWithDeadline
// documents: an arrival stamped t comes after every event due at or before t.
// A request sent exactly on a window boundary is therefore counted in the
// window that opens there, never in the one the tick closes, whichever
// goroutine wins the lock — and the whole run is replay-deterministic.
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
