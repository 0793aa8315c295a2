package simulator

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"smiless/internal/apps"
	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/faults"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/trace"
)

// A container reaped by keep-alive is the next launch: the same object,
// under a new id, with a fresh life. Builds tagged smiless_invariants retire
// it instead.
func TestReapedContainerIsReused(t *testing.T) {
	l := newLive(exactChain(1), keepAlive(5), 1, 1e9)
	l.Arrive(0, 0) // cold start 0–1, executes 1–1.1, reaped at 6.1
	runTo(l, 2, nil)
	c := l.fnList[0].containers[0]
	old := c.id
	runTo(l, 7, nil)
	if l.LiveInstances("F1") != 0 {
		t.Fatal("the idle instance was not reaped")
	}
	l.Arrive(0, 0)
	next := l.fnList[0].containers[0]
	if invariantsEnabled {
		if next == c || !c.retired {
			t.Errorf("invariant build: reused %t, retired %t; want a new object and the old one retired", next == c, c.retired)
		}
		return
	}
	if next != c {
		t.Fatal("the reaped container was not handed to the next launch")
	}
	fresh := c.id == old+1 && c.state == cInitializing && c.initStart == 7 && !c.prewarmed &&
		!c.idleArmed && math.IsInf(c.timerAt, 1) && c.batch == nil && len(c.assigned) == 1
	if !fresh {
		t.Errorf("reused container: id %d (was %d), state %d, initStart %v, idleArmed %t, timerAt %v, batch %d, assigned %d; want a fresh launch",
			c.id, old, c.state, c.initStart, c.idleArmed, c.timerAt, len(c.batch), len(c.assigned))
	}
	runTo(l, 10, nil)
	if st := l.Stats(); st.Completed != 2 || st.Inits != 2 {
		t.Errorf("completed %d with %d inits, want 2 and 2", st.Completed, st.Inits)
	}
}

// An event queued for one life of a container never acts on a later life of
// the same object. Each case runs one function on one node: request 0 cold
// starts container X at 0 and runs on it from 1; at kill the node crashes
// and reboots, evicting X (its member fails over to a fresh launch Y);
// request 1 arrives 0.1 s later and reuses X. X's event of kind then comes
// due — or, with a partition, is held and replayed at the heal — while the
// reused X is in the state the handler acts on, so only the handler's
// staleness guard stands between them: the event must change nothing.
func TestStaleEventSparesReusedContainer(t *testing.T) {
	straggle := func(s0, s2 float64) []float64 { return []float64{s0, 1, s2} }
	retry := func(d Directive, timeout float64) Directive {
		d.Retry = faults.RetryPolicy{MaxAttempts: 3, Timeout: timeout}
		return d
	}
	hedge := keepAlive(60)
	hedge.HedgeDelay = 3
	cases := []struct {
		name      string
		dir       Directive
		inj       *scriptInjector
		kill      float64
		kind      eventKind
		staleAt   float64    // when X's event comes due
		partition [2]float64 // cut and heal times; zero: no partition
		state     int        // the reused X's state when the event reaches it
	}{
		{name: "init-done", dir: keepAlive(60), inj: &scriptInjector{}, kill: 0.5,
			kind: evInitDone, staleAt: 1, state: cInitializing},
		{name: "init-fail", dir: keepAlive(60), inj: &scriptInjector{initFail: []bool{true}}, kill: 0.25,
			kind: evInitFail, staleAt: 0.5, state: cInitializing},
		{name: "exec-done", dir: keepAlive(60), inj: &scriptInjector{straggler: straggle(30, 30)}, kill: 1.5,
			kind: evExecDone, staleAt: 4, state: cBusy},
		{name: "exec-fail", dir: keepAlive(60), inj: &scriptInjector{execFail: []bool{true}, straggler: straggle(60, 60)}, kill: 1.5,
			kind: evExecFail, staleAt: 4, state: cBusy},
		{name: "exec-timeout", dir: retry(keepAlive(60), 3), inj: &scriptInjector{straggler: straggle(40, 40)}, kill: 1.5,
			kind: evExecTimeout, staleAt: 4, state: cBusy},
		{name: "hedge", dir: hedge, inj: &scriptInjector{straggler: straggle(40, 40)}, kill: 1.5,
			kind: evHedge, staleAt: 4, state: cBusy},
		{name: "idle-timeout", dir: keepAlive(60), inj: &scriptInjector{}, kill: 1.5,
			kind: evIdleTimeout, staleAt: 61.1, state: cIdle},
		{name: "held-exec-done", dir: keepAlive(60), inj: &scriptInjector{straggler: straggle(30, 30)}, kill: 1.5,
			kind: evExecDone, staleAt: 4, partition: [2]float64{3, 5}, state: cBusy},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := newLive(exactChain(1), tc.dir, 1, 1e9)
			l.inj = tc.inj
			l.Arrive(0, 0)
			runTo(l, tc.kill, nil)
			x := l.conts[0]
			old := x.id
			l.CrashNode(0)
			l.RebootNode(0)
			runTo(l, tc.kill+0.1, nil)
			l.Arrive(0, 0)
			if invariantsEnabled {
				if !x.retired || x.state != cDead {
					t.Errorf("invariant build: container %d retired %t, state %d; want retired and dead", old, x.retired, x.state)
				}
				return
			}
			if x.id == old || x.state != cInitializing {
				t.Fatalf("container %d was not reused by the next launch (id %d, state %d)", old, x.id, x.state)
			}
			var before container
			var stats RunStats
			snapshot := func() {
				if x.state != tc.state {
					t.Fatalf("reused container in state %d when the stale event reaches it, want %d", x.state, tc.state)
				}
				before, stats = *x, *l.stats
			}
			if cut, heal := tc.partition[0], tc.partition[1]; heal > 0 {
				runTo(l, cut, nil)
				l.PartitionNode(0, true)
				runTo(l, heal, nil)
				if !slices.ContainsFunc(l.nodes[0].held, func(ev event) bool { return ev.kind == tc.kind && ev.c == x }) {
					t.Fatalf("no %d event for container %d was held by the partition", tc.kind, old)
				}
				snapshot()
				l.PartitionNode(0, false)
			} else if !stepToEvent(l, tc.kind, x, tc.staleAt, snapshot) {
				t.Fatalf("no %d event for container %d came due at %v", tc.kind, old, tc.staleAt)
			}
			if !reflect.DeepEqual(*x, before) || !reflect.DeepEqual(*l.stats, stats) {
				t.Errorf("a stale event of container %d changed its reuse %d", old, x.id)
			}
		})
	}
}

// stepToEvent handles l's events in order until it pops one of kind for c
// due at at: it calls before, dispatches that event and reports true.
func stepToEvent(l *LiveEngine, kind eventKind, c *container, at float64, before func()) bool {
	for {
		due, ok := l.NextAt()
		if !ok || due > at+1e-9 {
			return false
		}
		_, ev := l.events.Pop()
		l.SetNow(due)
		if ev.kind == kind && ev.c == c && math.Abs(due-at) <= 1e-9 {
			before()
			l.dispatch(&ev)
			return true
		}
		l.dispatch(&ev)
	}
}

// A container a driver terminates inside its callback is not handed to a
// launch in the same callback: it is spare only from the next event on.
func TestContainerKilledInCallbackNotReusedThere(t *testing.T) {
	var x *container
	var xID int
	launched := map[int]*container{} // by window
	d := &scripted{dir: keepAlive(60), onWindow: func(cp ControlPlane, w int) {
		e := cp.(*Engine)
		fs := e.fnList[0]
		switch w {
		case 2: // X idles since 1.1: swap the flavor, retire X, launch again
			x, xID = fs.containers[0], fs.containers[0].id
			dir := cp.GetDirective("F1")
			dir.Config = cpu(2)
			cp.SetDirective("F1", dir)
			cp.EnsureConfigInstance("F1")
			cp.RetireMismatched("F1")
			if x.state != cDead {
				t.Fatal("RetireMismatched left the old flavor's instance live")
			}
			cp.EnsureInstances("F1", 2)
			launched[w] = fs.containers[len(fs.containers)-1]
		case 3:
			cp.EnsureInstances("F1", 3)
			launched[w] = fs.containers[len(fs.containers)-1]
		}
	}}
	l := &LiveEngine{}
	if _, err := l.InitLive(Config{App: exactChain(1), SLA: 10, Window: 1, Seed: 1, Cluster: hardware.UnboundedCluster(1)}, d, 0, nil); err != nil {
		t.Fatal(err)
	}
	l.Begin()
	l.Arrive(0, 0)
	runTo(l, 3.5, nil)
	if x == nil || launched[2] == nil || launched[3] == nil {
		t.Fatal("the driver's windows did not run")
	}
	if launched[2] == x {
		t.Errorf("container %d was reused by a launch in the callback that terminated it", xID)
	}
	if reused, want := launched[3] == x, !invariantsEnabled; reused != want {
		t.Errorf("container %d reused by the next window's launch: %t, want %t", xID, reused, want)
	}
}

// Case-I pre-warming unloads a function after every invocation, so requests
// launch and terminate containers: here 0.78 launches per request. A reused
// container brings its batch array along, so the churn allocates nothing,
// and a static Prewarm driver's Simulator.Run over 36 000 requests pays for
// its set-up, its pools and the amortised growth of its logs, 0.02 per
// request. With a fresh container and batch array per launch it reads 1.57.
func TestRunContainerChurnAllocations(t *testing.T) {
	if allocsInstrumented {
		t.Skip("race and invariant builds allocate inside instrumentation")
	}
	tr := trace.Poisson(mathx.NewRand(1), 20, 1800)
	sim := MustNew(Config{App: apps.ImageQuery(), SLA: 2, Seed: 1}, &staticDriver{directive: func(dag.NodeID) Directive {
		return Directive{Config: cpu(4), Policy: coldstart.Prewarm, Batch: 1, Instances: 20}
	}})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := sim.MustRun(tr)
	runtime.ReadMemStats(&after)
	if st.Completed != tr.Len() {
		t.Fatalf("completed %d of %d requests", st.Completed, tr.Len())
	}
	if 2*st.Inits < tr.Len() {
		t.Fatalf("%d launches for %d requests: the run churns too little to gate", st.Inits, tr.Len())
	}
	if perReq := float64(after.Mallocs-before.Mallocs) / float64(tr.Len()); perReq > 0.05 {
		t.Errorf("%.4f allocations per request over %d requests, want at most 0.05", perReq, tr.Len())
	}
}
