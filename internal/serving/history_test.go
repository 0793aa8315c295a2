package serving

import (
	"context"
	"runtime"
	"slices"
	"sync"
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

// TestHistoryViewsAreClippedAndLockedCopiesAreDetached: inside a callback
// the driver reads views it cannot grow into the log, on both front ends;
// outside, the runtime's *Locked accessors hand out copies, so a write
// through one never reaches the runtime.
func TestHistoryViewsAreClippedAndLockedCopiesAreDetached(t *testing.T) {
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

	rt, fake := newTestRuntime(t, Config{App: testChain([]float64{0.1}, 1.0), SLA: 10, Window: 1}, keepAliveDriver(1))
	for i := 0; i < 3; i++ { // three arrivals: the log's array has spare capacity
		_ = await(t, rt, fake, mustInvoke(t, rt))
	}
	stepUntil(t, rt, fake, func() bool { return len(rt.CountsHistoryLocked()) >= 3 })

	arr, counts := rt.ArrivalTimesLocked(), rt.CountsHistoryLocked()
	if len(arr) != 3 {
		t.Fatalf("arrival log has %d entries, want 3", len(arr))
	}
	wantArr, wantCount := arr[0], counts[0]
	arr[0], counts[0] = -1, -1
	if got := rt.ArrivalTimesLocked()[0]; got != wantArr {
		t.Errorf("write through ArrivalTimesLocked reached the runtime: first arrival now %v, was %v", got, wantArr)
	}
	if got := rt.CountsHistoryLocked()[0]; got != wantCount {
		t.Errorf("write through CountsHistoryLocked reached the runtime: first count now %v, was %v", got, wantCount)
	}
}

// TestLockedHistoryIsRaceFreeUnderInvoke: goroutines that keep, read and
// scribble over *Locked results while Invoke appends to the logs share no
// memory with the runtime or with each other (meaningful under -race: it
// fails if the accessors hand out views instead of copies).
func TestLockedHistoryIsRaceFreeUnderInvoke(t *testing.T) {
	rt, err := New(Config{App: testChain([]float64{0}, 0), SLA: 10, Window: 0.001, MaxInflight: 4096, QueueCap: 65536}, keepAliveDriver(1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rt.Start()
	defer rt.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				arr, counts := rt.ArrivalTimesLocked(), rt.CountsHistoryLocked()
				sum := 0.0
				for i := range arr {
					sum += arr[i]
					arr[i] = -sum
				}
				for i := range counts {
					counts[i]++
				}
				runtime.Gosched() // leave rt.mu to Invoke and the event loop
			}
		}()
	}
	const requests = 2000
	for i := 0; i < requests; i++ {
		ch, err := rt.Invoke(context.Background())
		if err != nil {
			t.Fatalf("Invoke: %v", err)
		}
		if res := <-ch; res.Failed {
			t.Fatalf("request %d failed: %+v", i, res)
		}
	}
	close(stop)
	wg.Wait()
	arr := rt.ArrivalTimesLocked()
	if len(arr) != requests {
		t.Fatalf("arrival log has %d entries, want %d", len(arr), requests)
	}
	for i := 1; i < len(arr); i++ {
		if arr[i] < arr[i-1] || arr[i] < 0 {
			t.Fatalf("arrival log corrupted at %d: %v after %v", i, arr[i], arr[i-1])
		}
	}
}
