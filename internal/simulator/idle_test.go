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

// runScripted replays arrivals over a one-function exact chain and returns
// the live-instance count seen at each window tick.
func runScripted(t *testing.T, dir Directive, arrivals []float64, horizon float64, at map[int]func(cp ControlPlane, id dag.NodeID)) (live map[int]int, st *RunStats) {
	t.Helper()
	live = map[int]int{}
	d := &scripted{dir: dir, onWindow: func(cp ControlPlane, w int) {
		if f := at[w]; f != nil {
			f(cp, "F1")
		}
		live[w] = cp.LiveInstances("F1")
	}}
	sim := MustNew(Config{App: exactChain(1), SLA: 10, Seed: 1}, d)
	return live, sim.MustRun(&trace.Trace{Horizon: horizon, Arrivals: arrivals})
}

// A directive cuts KeepAlive while the entry for the long deadline is queued:
// the next arm's shorter deadline must fire on time, not when the old entry
// does.
func TestIdleExpiryAtShorterDeadlineAfterKeepAliveCut(t *testing.T) {
	// Arrival 0.5: warm at 1.5, done at 1.6, deadline 31.6 queued. Window 5
	// cuts KeepAlive to 2. Arrival 10: done 10.1, deadline 12.1.
	live, st := runScripted(t, keepAlive(30), []float64{0.5, 10}, 40, map[int]func(ControlPlane, dag.NodeID){
		5: func(cp ControlPlane, id dag.NodeID) { cp.SetDirective(id, keepAlive(2)) },
	})
	if live[12] != 1 || live[13] != 0 {
		t.Errorf("live instances at windows 12, 13 = %d, %d; want 1, 0 (reaped at 12.1)", live[12], live[13])
	}
	if want := 12.1 - 0.5; !mathx.ApproxEq(st.CPUSeconds, want, 1e-9) {
		t.Errorf("billed %.6f container-seconds, want %.6f", st.CPUSeconds, want)
	}
}

// The policy flips to AlwaysOn after a batch voided the armed deadline: the
// entry still queued for it must not reap the instance.
func TestNoReapAfterFlipToAlwaysOn(t *testing.T) {
	// Arrival 0.5: done 1.6, deadline 6.6 queued. Window 3 flips to AlwaysOn.
	// Arrival 3.5 starts a batch (voiding 6.6); done 3.6, nothing re-armed.
	always := keepAlive(5)
	always.Policy = coldstart.AlwaysOn
	queued := -1
	live, _ := runScripted(t, keepAlive(5), []float64{0.5, 3.5}, 30, map[int]func(ControlPlane, dag.NodeID){
		3:  func(cp ControlPlane, id dag.NodeID) { cp.SetDirective(id, always) },
		30: func(cp ControlPlane, _ dag.NodeID) { queued = queuedBesidesTick(cp) },
	})
	if live[6] != 1 || live[7] != 1 || live[30] != 1 {
		t.Errorf("live instances at windows 6, 7, 30 = %d, %d, %d; want 1 throughout", live[6], live[7], live[30])
	}
	if queued != 0 {
		t.Errorf("%d events queued at window 30 besides the next tick, for an instance with no deadline", queued)
	}
}

// An expiry that would drop the fleet below MinWarm re-arms instead; once the
// floor is lifted the next expiry reaps.
func TestMinWarmFloorRearms(t *testing.T) {
	// Done 1.6; deadlines 3.6, 5.6, 7.6, 9.6 hit the floor and re-arm. Window
	// 10 lifts it: reaped at 11.6.
	floor := keepAlive(2)
	floor.MinWarm = 1
	queued := -1
	live, st := runScripted(t, floor, []float64{0.5}, 20, map[int]func(ControlPlane, dag.NodeID){
		10: func(cp ControlPlane, id dag.NodeID) {
			queued = queuedBesidesTick(cp)
			cp.SetDirective(id, keepAlive(2))
		},
	})
	if live[4] != 1 || live[11] != 1 || live[12] != 0 {
		t.Errorf("live instances at windows 4, 11, 12 = %d, %d, %d; want 1, 1, 0", live[4], live[11], live[12])
	}
	if queued != 1 {
		t.Errorf("%d events queued at window 10 besides the next tick; want the floor instance's one re-armed entry", queued)
	}
	if want := 11.6 - 0.5; !mathx.ApproxEq(st.CPUSeconds, want, 1e-9) {
		t.Errorf("billed %.6f container-seconds, want %.6f", st.CPUSeconds, want)
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
