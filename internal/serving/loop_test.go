package serving

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
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

// The runtime owns one timer: however many requests re-arm it, the clock
// holds at most one wake-up for it.
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

// Whoever makes work due runs it: a request whose DAG takes no model time
// has resolved by the time Invoke returns, its Result already on the channel,
// with no pass of the loop goroutine in between.
func TestInvokeRunsItsOwnWork(t *testing.T) {
	rt, _ := newTestRuntime(t, Config{App: zeroDiamond(), SLA: 10}, keepAliveDriver(1))
	for i := 0; i < 1000; i++ {
		ch := mustInvoke(t, rt)
		if n := len(ch); n != 1 {
			t.Fatalf("request %d: Invoke returned with %d Results on its channel, want 1", i, n)
		}
		if res := <-ch; res.Failed {
			t.Fatalf("request %d failed: %+v", i, res)
		}
	}
}

// The timer's function runs inside the Advance that reaches its deadline:
// on one P, with no other goroutine given a turn, a request's Result is on
// its channel as soon as AdvanceToNext returns from its last deadline.
func TestAdvanceRunsDueWork(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rt, fake := newTestRuntime(t, Config{App: testChain([]float64{0.1, 0.2}, 1.0), SLA: 10}, keepAliveDriver(1))
	ch := mustInvoke(t, rt)
	const e2e = 2*1.0 + 0.1 + 0.2 // both stages cold: init, then execution
	for fake.Now() < e2e-1e-9 {
		if !fake.AdvanceToNext() {
			t.Fatalf("no deadline pending at %v, before the request's last at %v", fake.Now(), e2e)
		}
	}
	if n := len(ch); n != 1 {
		t.Fatalf("AdvanceToNext returned at %v with %d Results on the channel, want 1", fake.Now(), n)
	}
	if res := <-ch; res.Failed || !near(res.E2E, e2e, 1e-9) {
		t.Fatalf("result %+v, want a completed request with E2E %v", res, e2e)
	}
}

// schedLatencySamples is the runtime's sampled count of goroutines that went
// from runnable to running: one hand-off from one goroutine to another (a
// wake-up on a channel) adds one to it about one time in eight.
func schedLatencySamples() uint64 {
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	var n uint64
	for _, c := range s[0].Value.Float64Histogram().Counts {
		n += c
	}
	return n
}

// A blocking Call hands its work to no other goroutine: on one P, the
// caller admits, runs the DAG and reads its Result without the scheduler
// switching to the loop goroutine and back.
func TestCallHandsOffNoGoroutine(t *testing.T) {
	if allocsInstrumented {
		t.Skip("race and invariant builds add scheduler work inside instrumentation")
	}
	const calls = 20000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rt := newWallRuntime(t)
	ctx := context.Background()
	call := func() {
		if res, err := rt.Call(ctx, 0); err != nil || res.Failed {
			t.Fatalf("Call: %+v, %v", res, err)
		}
	}
	for i := 0; i < 1000; i++ { // cold starts
		call()
	}
	before := schedLatencySamples()
	for i := 0; i < calls; i++ {
		call()
	}
	if per := float64(schedLatencySamples()-before) / calls; per > 0.01 {
		t.Errorf("%.4f sampled scheduler hand-offs per Call, want at most 0.01", per)
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

// Serving a request starts no goroutine and leaves none behind: not for
// watching a caller's context that is never cancelled, and not for the
// runtime's wake-ups. A wall timer's fire starts one goroutine for its
// function, so the several decision windows that pass during the run start a
// few; the bound is per request, far below one.
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

func (c *setClock) Now() float64                { return c.now }
func (c *setClock) NewTimer(func()) clock.Timer { return nil }

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
