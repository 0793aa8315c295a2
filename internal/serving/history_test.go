package serving

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"smiless/internal/simulator"
)

// appendingDriver exercises the ControlPlane history contract from the
// inside: every window it appends to both views. The views are cap-clipped,
// so the appends land in fresh arrays and never in the runtime's logs.
type appendingDriver struct {
	*staticDriver
	unclipped int // windows in which a view exposed the log's spare capacity
}

func (d *appendingDriver) OnWindow(cp simulator.ControlPlane, now float64) {
	arr, counts := cp.ArrivalTimes(), cp.CountsHistory()
	if cap(arr) != len(arr) || cap(counts) != len(counts) {
		d.unclipped++
	}
	_, _ = append(arr, -1), append(counts, -1)
}

// TestHistoryViewsAreClippedAndLockedCopiesAreDetached: inside a callback
// the driver reads views it cannot grow into the log; outside, the *Locked
// accessors hand out copies, so a write through one never reaches the
// runtime.
func TestHistoryViewsAreClippedAndLockedCopiesAreDetached(t *testing.T) {
	drv := &appendingDriver{staticDriver: keepAliveDriver(1)}
	rt, fake := newTestRuntime(t, Config{App: testChain([]float64{0.1}, 1.0), SLA: 10, Window: 1}, drv)
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

	rt.Close() // the event loop has exited: drv is ours to read
	if drv.unclipped > 0 {
		t.Errorf("history views exposed the logs' spare capacity in %d windows", drv.unclipped)
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
