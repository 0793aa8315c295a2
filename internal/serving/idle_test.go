package serving

import (
	"context"
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
	t   *testing.T
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
	rt.eng.SetDirective("F1", dir)
	return &driven{t, rt, clk}
}

// runTo runs every queued event due by model time t, each at its deadline.
func (d *driven) runTo(t float64) {
	for {
		at, ok := d.rt.eng.NextAt()
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
	if _, err := d.rt.Invoke(context.Background()); err != nil {
		d.t.Fatalf("Invoke at %v: %v", t, err)
	}
}

func (d *driven) live() int { return d.rt.eng.LiveInstances("F1") }

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
	d.rt.eng.SetDirective("F1", liveKeepAlive(2))
	d.arriveAt(10) // done 10.1, deadline 12.1
	d.runTo(12.05)
	if d.live() != 1 {
		t.Fatalf("instance gone at 12.05, before its 12.1 deadline")
	}
	d.runTo(12.15)
	if d.live() != 0 {
		t.Fatalf("instance still live at 12.15: the 12.1 deadline waited for the entry queued for 31.6")
	}
	if got, want := d.rt.eng.Stats().CPUSeconds, 12.1-0.5; !near(got, want, 1e-9) {
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
	d.rt.eng.SetDirective("F1", always)
	d.runTo(100)
	if d.live() != 1 {
		t.Fatalf("AlwaysOn instance reaped by the keep-alive entry queued before the flip")
	}
	if at, ok := d.rt.eng.NextAt(); ok {
		t.Errorf("an event still queued for %v for an instance with no deadline", at)
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
	if at, ok := d.rt.eng.NextAt(); d.live() != 1 || !ok || !near(at, 11.6, 1e-9) {
		t.Fatalf("at 10: %d live, next event at %v (queued %v); want the floor instance and its entry re-armed for 11.6", d.live(), at, ok)
	}
	d.rt.eng.SetDirective("F1", liveKeepAlive(2))
	d.runTo(11.55)
	if d.live() != 1 {
		t.Fatalf("instance gone at 11.55, before its 11.6 deadline")
	}
	d.runTo(11.65)
	if d.live() != 0 {
		t.Fatalf("instance still live at 11.65 with the floor lifted")
	}
	if at, ok := d.rt.eng.NextAt(); ok {
		t.Errorf("an event still queued for %v once the only instance is reaped", at)
	}
}

// Ten thousand batches on four instances leave at most one keep-alive entry
// per instance in the queue, not one per batch. Every entry queued after the
// last arrival comes due (keep-alive 1000 s), so draining the queue counts
// them: at most one per in-flight batch and two per instance, the entry and
// its one re-push when the deadline it was queued for has moved.
func TestQueueDoesNotGrowWithCompletedBatches(t *testing.T) {
	const instances, bound = 4, 4 + 2*4 + 2 // in-flight batches + entries and re-pushes + slack
	d := newDriven(t, liveKeepAlive(1000))
	for i := 0; i < 10000; i++ {
		d.arriveAt(2 + float64(i)*0.035)
	}
	drained := 0
	for at, ok := d.rt.eng.NextAt(); ok; at, ok = d.rt.eng.NextAt() {
		d.clk.now = at
		d.rt.readClock()
		d.rt.eng.HandleNext()
		drained++
	}
	if st := d.rt.eng.Stats(); st.Executions != 10000 || st.Inits != instances || st.Completed != 10000 {
		t.Fatalf("ran %d batches on %d instances, %d completed; want 10000 on %d", st.Executions, st.Inits, st.Completed, instances)
	}
	if drained > bound {
		t.Errorf("draining the queue after the last arrival handled %d events, want at most %d", drained, bound)
	}
}
