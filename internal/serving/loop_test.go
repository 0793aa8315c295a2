package serving

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"smiless/internal/clock"
	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/faults"
	"smiless/internal/hardware"
	"smiless/internal/simulator"
	"smiless/internal/tracing"
)

// The scheduler loop owns one timer: however many passes requests poke it
// into, the clock holds at most one wake-up for it.
func TestLoopKeepsOneClockWaiter(t *testing.T) {
	rt, fake := newTestRuntime(t, Config{App: testChain([]float64{0, 0}, 0), SLA: 10}, keepAliveDriver(1))
	for i := 0; i < 1000; i++ {
		// Zero latencies: every event is due at the arrival's own instant,
		// so the request resolves without the clock moving.
		if res := <-mustInvoke(t, rt); res.Failed {
			t.Fatalf("request %d failed: %+v", i, res)
		}
	}
	stepUntil(t, rt, fake, func() bool { return true })
	if got := fake.Waiters(); got > 1 {
		t.Errorf("%d clock waiters after 1000 requests, want the loop's one timer", got)
	}
}

// goroutineID starts a goroutine and returns its id. Ids are handed out in
// creation order (in blocks of 16 per P), so the difference between two
// readings bounds the number of goroutines the process started in between.
func goroutineID(t *testing.T) int {
	t.Helper()
	ch := make(chan int)
	go func() {
		buf := make([]byte, 64)
		id := 0
		if _, err := fmt.Sscanf(string(buf[:runtime.Stack(buf, false)]), "goroutine %d ", &id); err != nil {
			t.Errorf("goroutine header %q: %v", buf, err)
		}
		ch <- id
	}()
	return <-ch
}

// Serving a request starts no goroutine and leaves none behind: not for the
// loop's wake-up (several decision windows pass during the run, so a timer
// that fired through a goroutine would show) and not for watching a caller's
// context that is never cancelled.
func TestNoGoroutinePerRequest(t *testing.T) {
	const requests, windows = 20000, 3
	before := runtime.NumGoroutine()
	rt, err := New(Config{App: testChain([]float64{0}, 0), SLA: 10, Window: 0.02}, keepAliveDriver(1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rt.Start()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	firstID := goroutineID(t)
	windowsClosed := func() int { counts, _ := history(rt); return len(counts) }
	for i := 0; i < requests || windowsClosed() < windows; i++ {
		ch, err := rt.Invoke(ctx)
		if err != nil {
			t.Fatalf("Invoke: %v", err)
		}
		if res := <-ch; res.Failed {
			t.Fatalf("request %d failed: %+v", i, res)
		}
	}
	if started := goroutineID(t) - firstID; started > requests/10 {
		t.Errorf("about %d goroutines started while serving %d requests, want none per request", started, requests)
	}
	rt.Close()
	waitForReal(t, func() bool { return runtime.NumGoroutine() <= before })
}

// setClock is a clock the test sets directly, for runtimes that are never
// started: the test goroutine plays the scheduler loop, so every event runs
// exactly when the test says and no goroutine hand-off is involved.
type setClock struct{ now float64 }

func (c *setClock) Now() float64          { return c.now }
func (c *setClock) NewTimer() clock.Timer { return nil }
func (c *setClock) Sleep(float64)         {}

// tickClock is a set-by-hand clock that moves a little on every reading, as
// a wall clock does between two calls: the first reading after a set returns
// the set value exactly, later ones drift.
type tickClock struct{ setClock }

const tick = 1e-6

func (c *tickClock) Now() float64 {
	v := c.now
	c.now += tick
	return v
}

// One event is one instant: everything handling it stamps — ready times,
// span boundaries, container births and deaths, the base later events are
// scheduled from — is the same float, however often the clock could have
// been read on the way. The run below has a cold start, a crashed execution
// with a backed-off retry, a successor release and a keep-alive reap, on a
// clock that drifts by a microsecond per reading while every modelled delay
// is at least 50 ms: two stamps closer than that and not equal were taken
// from two readings within one event.
func TestEventIsOneInstant(t *testing.T) {
	app := testChain([]float64{0.25, 0.15}, 1.0)
	rec := tracing.NewRecorder(app.Graph)
	clk := &tickClock{}
	plan := &faults.Plan{PerFunction: map[string]faults.Rates{"F1": {ExecFail: 0.5}}, Seed: 3}
	rt, err := New(Config{App: app, SLA: 10, Clock: clk, Recorder: rec, DefaultDeadline: 50, Faults: plan}, &staticDriver{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(rt.Close)
	for _, id := range []dag.NodeID{"F1", "F2"} {
		rt.eng.SetDirective(id, simulator.Directive{
			Config: hardware.Config{Kind: hardware.CPU, Cores: 4},
			Policy: coldstart.KeepAlive, KeepAlive: 5, Batch: 1, Instances: 2,
			Retry: faults.RetryPolicy{MaxAttempts: 3, BaseBackoff: 0.2},
		})
	}
	// The test plays the scheduler loop: one event per clock setting.
	runTo := func(until float64) {
		for {
			at, ok := rt.eng.NextAt()
			if !ok || at > until {
				break
			}
			clk.now = at
			rt.runDue()
		}
		clk.now = until
		rt.readClock()
	}
	runTo(0.3)
	if _, err := rt.Invoke(context.Background()); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	runTo(40)
	if st, live := rt.eng.Stats(), rt.eng.LiveInstances("F1")+rt.eng.LiveInstances("F2"); st.Completed != 1 || st.ExecFailures != 1 || st.Retries != 1 || live != 0 {
		t.Fatalf("completed %d, exec failures %d, retries %d, %d containers live; want 1, 1, 1, 0: the scenario did not run as written",
			st.Completed, st.ExecFailures, st.Retries, live)
	}

	var stamps []float64
	for _, r := range rec.Requests() {
		stamps = append(stamps, r.Arrival, r.End)
		for _, sp := range r.Nodes {
			stamps = append(stamps, sp.FirstReady, sp.End)
			for _, seg := range sp.Segs {
				stamps = append(stamps, seg.Start, seg.End)
			}
		}
	}
	for _, cs := range rec.ContainerSpans() {
		stamps = append(stamps, cs.Start, cs.End)
	}
	stamps = append(stamps, rt.eng.ArrivalTimes()...)
	stamps = append(stamps, rt.eng.Stats().E2EArrival...)
	sort.Float64s(stamps)
	if len(stamps) < 20 {
		t.Fatalf("only %d stamps collected: the scenario recorded too little to check", len(stamps))
	}
	for i := 1; i < len(stamps); i++ {
		if d := stamps[i] - stamps[i-1]; d > 0 && d < 1e-3 {
			t.Errorf("stamps %.7f and %.7f are %.1f clock readings apart: one event was handled at two instants",
				stamps[i-1], stamps[i], d/tick)
		}
	}
}
