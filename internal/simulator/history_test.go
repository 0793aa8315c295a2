package simulator

import (
	"testing"

	"smiless/internal/apps"
	"smiless/internal/trace"
)

// appendingDriver exercises the ControlPlane history contract from the
// inside: every window it appends to both views. The views are cap-clipped,
// so the appends land in fresh arrays and never in the simulator's logs.
type appendingDriver struct {
	*staticDriver
	unclipped int // windows in which a view exposed the log's spare capacity
}

func (d *appendingDriver) OnWindow(cp ControlPlane, now float64) {
	arr, counts := cp.ArrivalTimes(), cp.CountsHistory()
	if cap(arr) != len(arr) || cap(counts) != len(counts) {
		d.unclipped++
	}
	_, _ = append(arr, -1), append(counts, -1)
}

func TestHistoryViewsAreClipped(t *testing.T) {
	drv := &appendingDriver{staticDriver: keepAliveDriver(cpu(4), 30)}
	tr := &trace.Trace{Horizon: 20, Arrivals: []float64{0.5, 1.5, 1.6, 4.2, 9.9, 10, 15.5}}
	sim := MustNew(Config{App: apps.Pipeline(2), SLA: 10, Seed: 1}, drv)
	st := sim.MustRun(tr)
	if st.Completed != tr.Len() {
		t.Fatalf("completed %d/%d", st.Completed, tr.Len())
	}
	if drv.unclipped > 0 {
		t.Fatalf("history views exposed the logs' spare capacity in %d windows", drv.unclipped)
	}
	// The driver's appends of -1 never reached the logs.
	arr := sim.ArrivalTimes()
	if len(arr) != tr.Len() {
		t.Fatalf("arrival log has %d entries, want %d", len(arr), tr.Len())
	}
	for i, a := range arr {
		if a != tr.Arrivals[i] {
			t.Errorf("arrival log[%d] = %v, want %v", i, a, tr.Arrivals[i])
		}
	}
	total := 0
	for _, c := range sim.CountsHistory() {
		if c < 0 {
			t.Fatalf("counts log holds a driver-appended entry: %v", sim.CountsHistory())
		}
		total += c
	}
	if total != tr.Len() {
		t.Errorf("counts log sums to %d, want %d", total, tr.Len())
	}
}
