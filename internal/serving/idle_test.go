package serving

import (
	"testing"

	"smiless/internal/clock"
	"smiless/internal/coldstart"
	"smiless/internal/simulator"
)

// setClock is a clock the test sets directly. The runtimes below are never
// started: the test goroutine plays the scheduler loop, jumping to each queued
// deadline in turn, so every event runs exactly at its deadline and no
// goroutine hand-off is involved.
type setClock struct{ now float64 }

func (c *setClock) Now() float64          { return c.now }
func (c *setClock) NewTimer() clock.Timer { return nil }
func (c *setClock) Sleep(float64)         {}

type driven struct {
	rt  *Runtime
	clk *setClock
}

// newDriven builds a one-function runtime (cold start 1 s, execution 0.1 s)
// under the given directive.
func newDriven(t *testing.T, dir simulator.Directive) *driven {
	t.Helper()
	clk := &setClock{}
	rt, err := New(Config{App: testChain([]float64{0.1}, 1.0), SLA: 10, Clock: clk}, &staticDriver{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(rt.Close)
	rt.SetDirective("F1", dir)
	return &driven{rt, clk}
}

// runTo runs every queued event due by model time t, each at its deadline.
func (d *driven) runTo(t float64) {
	for {
		at, ok := d.rt.events.NextAt()
		if !ok || at > t {
			break
		}
		d.clk.now = at
		d.rt.runDue()
	}
	d.clk.now = t
	d.rt.readClock()
}

// arriveAt admits one request at model time t.
func (d *driven) arriveAt(t float64) {
	d.runTo(t)
	d.rt.inflight++
	d.rt.onArrival()
}

func (d *driven) live() int { return d.rt.LiveInstances("F1") }

func liveKeepAlive(ka float64) simulator.Directive {
	return simulator.Directive{
		Config: keepAliveDriver(1).dir("F1").Config, Policy: coldstart.KeepAlive,
		KeepAlive: ka, Batch: 1, Instances: 4,
	}
}

// A directive cuts KeepAlive while the entry for the long deadline is queued:
// the next arm's shorter deadline must fire on time.
func TestIdleExpiryAtShorterDeadlineAfterKeepAliveCut(t *testing.T) {
	d := newDriven(t, liveKeepAlive(30))
	d.arriveAt(0.5) // warm 1.5, done 1.6, deadline 31.6 queued
	d.runTo(5)
	d.rt.SetDirective("F1", liveKeepAlive(2))
	d.arriveAt(10) // done 10.1, deadline 12.1
	d.runTo(12.05)
	if d.live() != 1 {
		t.Fatalf("instance gone at 12.05, before its 12.1 deadline")
	}
	d.runTo(12.15)
	if d.live() != 0 {
		t.Fatalf("instance still live at 12.15: the 12.1 deadline waited for the entry queued for 31.6")
	}
	if got, want := d.rt.stats.CPUSeconds, 12.1-0.5; !near(got, want, 1e-9) {
		t.Errorf("billed %.6f container-seconds, want %.6f", got, want)
	}
}

// The policy flips to AlwaysOn after a batch voided the armed deadline: the
// entry still queued for it must not reap the instance.
func TestNoReapAfterFlipToAlwaysOn(t *testing.T) {
	d := newDriven(t, liveKeepAlive(5))
	d.arriveAt(0.5) // done 1.6, deadline 6.6 queued
	d.arriveAt(3.5) // batch voids it; done 3.6
	always := liveKeepAlive(5)
	always.Policy = coldstart.AlwaysOn
	d.rt.SetDirective("F1", always)
	d.runTo(100)
	if d.live() != 1 {
		t.Fatalf("AlwaysOn instance reaped by the keep-alive entry queued before the flip")
	}
	if n := d.rt.events.Len(); n != 0 {
		t.Errorf("%d events still queued for an instance with no deadline", n)
	}
}

// An expiry that would drop the fleet below MinWarm re-arms instead; once the
// floor is lifted the next expiry reaps.
func TestMinWarmFloorRearms(t *testing.T) {
	floor := liveKeepAlive(2)
	floor.MinWarm = 1
	d := newDriven(t, floor)
	d.arriveAt(0.5) // done 1.6; deadlines 3.6, 5.6, 7.6, 9.6 hit the floor
	d.runTo(10)
	if d.live() != 1 || d.rt.events.Len() != 1 {
		t.Fatalf("at 10: %d live, %d queued; want the floor instance and its one re-armed entry", d.live(), d.rt.events.Len())
	}
	d.rt.SetDirective("F1", liveKeepAlive(2))
	d.runTo(11.55)
	if d.live() != 1 {
		t.Fatalf("instance gone at 11.55, before its 11.6 deadline")
	}
	d.runTo(11.65)
	if d.live() != 0 {
		t.Fatalf("instance still live at 11.65 with the floor lifted")
	}
}

// Ten thousand batches on four instances leave at most one keep-alive entry
// per instance in the queue, not one per batch.
func TestQueueDoesNotGrowWithCompletedBatches(t *testing.T) {
	const instances, bound = 4, 4 + 4 + 2 // containers + in-flight batches + slack
	d := newDriven(t, liveKeepAlive(1000))
	longest := 0
	for i := 0; i < 10000; i++ {
		d.arriveAt(2 + float64(i)*0.035)
		longest = max(longest, d.rt.events.Len())
	}
	d.runTo(1000)
	if st := d.rt.stats; st.Executions != 10000 || st.Inits != instances || st.Completed != 10000 {
		t.Fatalf("ran %d batches on %d instances, %d completed; want 10000 on %d", st.Executions, st.Inits, st.Completed, instances)
	}
	if longest > bound {
		t.Errorf("event queue reached %d entries, want at most %d", longest, bound)
	}
}
