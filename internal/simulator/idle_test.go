package simulator

import (
	"fmt"
	"testing"

	"smiless/internal/apps"
	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/mathx"
	"smiless/internal/trace"
)

// exactChain is a linear app whose functions cold-start in exactly 1 s and
// execute in exactly 0.1 s, so keep-alive deadlines fall on known instants.
func exactChain(n int) *apps.Application {
	g := dag.New()
	specs := make(map[dag.NodeID]*apps.FunctionSpec)
	var prev dag.NodeID
	for i := 0; i < n; i++ {
		id := dag.NodeID(fmt.Sprintf("F%d", i+1))
		g.MustAddNode(id, "test")
		if i > 0 {
			g.MustAddEdge(prev, id)
		}
		specs[id] = &apps.FunctionSpec{Name: string(id), Model: "test", Field: "test", CPUG: 0.1, CPUInitMu: 1}
		prev = id
	}
	return &apps.Application{Name: "exact-chain", Graph: g, Specs: specs}
}

// scripted installs one directive at set-up and runs a hook at every window.
type scripted struct {
	dir      Directive
	onWindow func(cp ControlPlane, window int)
}

func (d *scripted) Name() string { return "scripted" }
func (d *scripted) Setup(cp ControlPlane) {
	for _, id := range cp.App().Graph.Nodes() {
		cp.SetDirective(id, d.dir)
	}
}
func (d *scripted) OnWindow(cp ControlPlane, now float64) { d.onWindow(cp, int(now+0.5)) }

// queuedBesidesTick counts the events queued on cp's engine other than the
// next decision-window tick, which a window callback always finds queued.
func queuedBesidesTick(cp ControlPlane) int { return cp.(*Engine).events.Len() - 1 }

func keepAlive(ka float64) Directive {
	return Directive{Config: cpu(4), Policy: coldstart.KeepAlive, KeepAlive: ka, Batch: 1, Instances: 4}
}

// runScripted replays arrivals over a one-function exact chain, running at's
// hooks at their windows.
func runScripted(dir Directive, arrivals []float64, horizon float64, at map[int]func(cp ControlPlane, id dag.NodeID)) {
	d := &scripted{dir: dir, onWindow: func(cp ControlPlane, w int) {
		if f := at[w]; f != nil {
			f(cp, "F1")
		}
	}}
	sim := MustNew(Config{App: exactChain(1), SLA: 10, Seed: 1}, d)
	sim.MustRun(&trace.Trace{Horizon: horizon, Arrivals: arrivals})
}

// The keep-alive queue holds an entry only for a deadline that can still
// fire. The instants instances are reaped at are checked against both front
// ends in internal/serving under the same test names.

// A directive cuts KeepAlive while the entry for the long deadline is queued:
// the next arm queues an entry for the shorter deadline instead of waiting
// for the old one, which drains, inert, when it comes due.
func TestIdleExpiryAtShorterDeadlineAfterKeepAliveCut(t *testing.T) {
	// Arrival 0.5: done 1.6, deadline 31.6 queued. Window 5 cuts KeepAlive to
	// 2. Arrival 10: done 10.1, deadline 12.1 queued beside 31.6.
	queued := map[int]int{}
	at := map[int]func(ControlPlane, dag.NodeID){
		5: func(cp ControlPlane, id dag.NodeID) { cp.SetDirective(id, keepAlive(2)) },
	}
	for _, w := range []int{11, 13, 32} {
		at[w] = func(cp ControlPlane, _ dag.NodeID) { queued[w] = queuedBesidesTick(cp) }
	}
	runScripted(keepAlive(30), []float64{0.5, 10}, 40, at)
	if queued[11] != 2 || queued[13] != 1 || queued[32] != 0 {
		t.Errorf("%d, %d, %d events queued at windows 11, 13, 32 besides the next tick; want 2, 1, 0", queued[11], queued[13], queued[32])
	}
}

// No entry stays queued for an AlwaysOn instance whose armed deadline a batch
// voided.
func TestNoReapAfterFlipToAlwaysOn(t *testing.T) {
	// Arrival 0.5: done 1.6, deadline 6.6 queued. Window 3 flips to AlwaysOn.
	// Arrival 3.5 starts a batch (voiding 6.6); done 3.6, nothing re-armed.
	always := keepAlive(5)
	always.Policy = coldstart.AlwaysOn
	queued := -1
	runScripted(keepAlive(5), []float64{0.5, 3.5}, 30, map[int]func(ControlPlane, dag.NodeID){
		3:  func(cp ControlPlane, id dag.NodeID) { cp.SetDirective(id, always) },
		30: func(cp ControlPlane, _ dag.NodeID) { queued = queuedBesidesTick(cp) },
	})
	if queued != 0 {
		t.Errorf("%d events queued at window 30 besides the next tick, for an instance with no deadline", queued)
	}
}

// A MinWarm floor instance that keeps re-arming holds exactly one entry, and
// none once the floor is lifted and it is reaped.
func TestMinWarmFloorRearms(t *testing.T) {
	// Done 1.6; deadlines 3.6, 5.6, 7.6, 9.6 hit the floor and re-arm. Window
	// 10 lifts it: reaped at 11.6, leaving nothing queued.
	floor := keepAlive(2)
	floor.MinWarm = 1
	queued, after := -1, -1
	runScripted(floor, []float64{0.5}, 20, map[int]func(ControlPlane, dag.NodeID){
		10: func(cp ControlPlane, id dag.NodeID) {
			queued = queuedBesidesTick(cp)
			cp.SetDirective(id, keepAlive(2))
		},
		15: func(cp ControlPlane, _ dag.NodeID) { after = queuedBesidesTick(cp) },
	})
	if queued != 1 || after != 0 {
		t.Errorf("%d, %d events queued at windows 10, 15 besides the next tick; want the floor instance's one re-armed entry, then none once it is reaped", queued, after)
	}
}

// Ten thousand batches on four instances leave at most one keep-alive entry
// per instance in the queue, not one per batch.
func TestQueueDoesNotGrowWithCompletedBatches(t *testing.T) {
	const instances, bound = 4, 4 + 4 + 2 // containers + in-flight batches + slack, besides the next tick
	tr := &trace.Trace{Horizon: 400}
	for i := 0; i < 10000; i++ {
		tr.Arrivals = append(tr.Arrivals, 2+float64(i)*0.035)
	}
	longest := 0
	d := &scripted{dir: keepAlive(1000), onWindow: func(cp ControlPlane, _ int) {
		longest = max(longest, queuedBesidesTick(cp))
	}}
	st := MustNew(Config{App: exactChain(1), SLA: 10, Seed: 1}, d).MustRun(tr)
	if st.Executions < 10000 || st.Inits != instances || st.Completed != 10000 {
		t.Fatalf("ran %d batches on %d instances, %d completed; want 10000 on %d", st.Executions, st.Inits, st.Completed, instances)
	}
	if longest > bound {
		t.Errorf("event queue reached %d entries, want at most %d", longest, bound)
	}
}

// TestRunEndsAtFirstEventAfterQuiescence pins Run's end-of-run rule: the
// first event handled past the trace horizon with nothing in flight ends the
// run, and warm containers are billed up to that instant.
func TestRunEndsAtFirstEventAfterQuiescence(t *testing.T) {
	for _, tc := range []struct {
		name     string
		arrivals []float64
		ka       float64
		prewarm  float64 // a pre-warm timer due then (0: none)
		end      float64
	}{
		{"last window tick", []float64{0.5}, 60, 0, 11},
		{"queued timer before the tick", []float64{0.5}, 60, 10.25, 10.25},
		{"request still in flight past the last tick", []float64{0.5, 10.95}, 60, 0, 11.05},
		// The deadline armed at 1.6 for 10.5 is voided by the batch at 5; its
		// queue entry is not an event that can end the run.
		{"voided keep-alive deadline", []float64{0.5, 5}, 8.9, 0, 11},
	} {
		d := &scripted{dir: keepAlive(tc.ka), onWindow: func(cp ControlPlane, w int) {
			if w == 9 && tc.prewarm > 0 {
				cp.SchedulePrewarm("F1", tc.prewarm)
			}
		}}
		sim := MustNew(Config{App: exactChain(1), SLA: 10, Seed: 1}, d)
		st := sim.MustRun(&trace.Trace{Horizon: 10, Arrivals: tc.arrivals})
		if !mathx.ApproxEq(sim.Now(), tc.end, 1e-9) {
			t.Errorf("%s: run ended at %.6f, want %.6f", tc.name, sim.Now(), tc.end)
		}
		if want := tc.end - 0.5; !mathx.ApproxEq(st.CPUSeconds, want, 1e-9) {
			t.Errorf("%s: billed %.6f container-seconds, want %.6f", tc.name, st.CPUSeconds, want)
		}
	}
}
