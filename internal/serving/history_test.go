package serving

import (
	"slices"
	"testing"

	"smiless/internal/apps"
	"smiless/internal/simulator"
	"smiless/internal/trace"
)

// appendingDriver exercises the ControlPlane history contract from the
// inside: every window it appends to both views. The views are cap-clipped,
// so the appends land in fresh arrays and never in the engine's logs.
type appendingDriver struct {
	*staticDriver
	unclipped int // windows in which a view exposed the log's spare capacity
	// arrivals and counts copy the views the last window read.
	arrivals []float64
	counts   []int
}

func (d *appendingDriver) OnWindow(cp simulator.ControlPlane, now float64) {
	arr, counts := cp.ArrivalTimes(), cp.CountsHistory()
	if cap(arr) != len(arr) || cap(counts) != len(counts) {
		d.unclipped++
	}
	d.arrivals, d.counts = slices.Clone(arr), slices.Clone(counts)
	_, _ = append(arr, -1), append(counts, -1)
}

// TestDriverHistoryViewsAreClipped: inside a callback the driver reads views
// it cannot grow into the log, on both front ends.
func TestDriverHistoryViewsAreClipped(t *testing.T) {
	tr := &trace.Trace{Horizon: 20, Arrivals: []float64{0.5, 1.5, 1.6, 4.2, 9.9, 10, 15.5}}
	var drivers []*appendingDriver
	st := replayBoth(t, scenario{
		cfg: Config{App: apps.Pipeline(2), SLA: 10, Seed: 1},
		driver: func(*apps.Application) simulator.Driver {
			d := &appendingDriver{staticDriver: keepAliveDriver(1)}
			drivers = append(drivers, d)
			return d
		},
		trace: tr,
	})
	if st.Completed != tr.Len() {
		t.Fatalf("completed %d/%d", st.Completed, tr.Len())
	}
	// The driver's appends of -1 never reached the logs.
	for _, d := range drivers {
		if d.unclipped > 0 {
			t.Errorf("history views exposed the logs' spare capacity in %d windows", d.unclipped)
		}
		if !slices.Equal(d.arrivals, tr.Arrivals) {
			t.Errorf("the last window's arrival view is %v, want %v", d.arrivals, tr.Arrivals)
		}
		total := 0
		for _, c := range d.counts {
			if c < 0 {
				t.Fatalf("counts log holds a driver-appended entry: %v", d.counts)
			}
			total += c
		}
		if total != tr.Len() {
			t.Errorf("the last window's counts view sums to %d, want %d", total, tr.Len())
		}
	}
}
