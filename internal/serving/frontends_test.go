package serving

import (
	"context"
	"reflect"
	"testing"

	"smiless/internal/apps"
	"smiless/internal/clock"
	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/placement"
	"smiless/internal/simulator"
	"smiless/internal/trace"
)

// Engine behaviours checked once, against both front ends: each test replays
// its scenario through replayBoth, which also requires the simulator and the
// runtime to agree on every RunStats field. Checks that read engine internals
// (the keep-alive queue) live beside the engine in internal/simulator; the
// one below that bounds the queue on the runtime's own path through the
// engine (NextAt/HandleNext) stays here.

// scripted installs one directive on every function at set-up, runs a hook at
// chosen decision windows and records F1's live instances at every window.
type scripted struct {
	dir  simulator.Directive
	at   map[int]func(cp simulator.ControlPlane)
	live map[int]int
}

func (d *scripted) Name() string { return "scripted" }
func (d *scripted) Setup(cp simulator.ControlPlane) {
	for _, id := range cp.App().Graph.Nodes() {
		cp.SetDirective(id, d.dir)
	}
}
func (d *scripted) OnWindow(cp simulator.ControlPlane, now float64) {
	w := int(now + 0.5)
	if f := d.at[w]; f != nil {
		f(cp)
	}
	d.live[w] = cp.LiveInstances("F1")
}

func keepAlive(ka float64) simulator.Directive {
	return simulator.Directive{
		Config: hardware.Config{Kind: hardware.CPU, Cores: 4}, Policy: coldstart.KeepAlive,
		KeepAlive: ka, Batch: 1, Instances: 4,
	}
}

// replayScripted replays arrivals over a one-function chain that cold-starts
// in exactly 1 s and executes in exactly 0.1 s, so keep-alive deadlines fall
// on known instants. It returns the run's statistics and, per front end, the
// live-instance count seen at each window.
func replayScripted(t *testing.T, dir simulator.Directive, arrivals []float64, horizon float64, at map[int]func(cp simulator.ControlPlane)) (*simulator.RunStats, []map[int]int) {
	t.Helper()
	var lives []map[int]int
	st := replayBoth(t, scenario{
		cfg: Config{App: testChain([]float64{0.1}, 1.0), SLA: 10, Seed: 1},
		driver: func(*apps.Application) simulator.Driver {
			d := &scripted{dir: dir, at: at, live: map[int]int{}}
			lives = append(lives, d.live)
			return d
		},
		trace: &trace.Trace{Horizon: horizon, Arrivals: arrivals},
	})
	return st, lives
}

// A directive cuts KeepAlive while the entry for the long deadline is queued:
// the next arm's shorter deadline must fire on time, not when the old entry
// does.
func TestIdleExpiryAtShorterDeadlineAfterKeepAliveCut(t *testing.T) {
	// Arrival 0.5: warm at 1.5, done at 1.6, deadline 31.6 queued. Window 5
	// cuts KeepAlive to 2. Arrival 10: done 10.1, deadline 12.1.
	st, lives := replayScripted(t, keepAlive(30), []float64{0.5, 10}, 40, map[int]func(simulator.ControlPlane){
		5: func(cp simulator.ControlPlane) { cp.SetDirective("F1", keepAlive(2)) },
	})
	for _, live := range lives {
		if live[12] != 1 || live[13] != 0 {
			t.Errorf("live instances at windows 12, 13 = %d, %d; want 1, 0 (reaped at 12.1)", live[12], live[13])
		}
	}
	if want := 12.1 - 0.5; !near(st.CPUSeconds, want, 1e-9) {
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
	_, lives := replayScripted(t, keepAlive(5), []float64{0.5, 3.5}, 30, map[int]func(simulator.ControlPlane){
		3: func(cp simulator.ControlPlane) { cp.SetDirective("F1", always) },
	})
	for _, live := range lives {
		if live[6] != 1 || live[7] != 1 || live[30] != 1 {
			t.Errorf("live instances at windows 6, 7, 30 = %d, %d, %d; want 1 throughout", live[6], live[7], live[30])
		}
	}
}

// An expiry that would drop the fleet below MinWarm re-arms instead; once the
// floor is lifted the next expiry reaps.
func TestMinWarmFloorRearms(t *testing.T) {
	// Done 1.6; deadlines 3.6, 5.6, 7.6, 9.6 hit the floor and re-arm. Window
	// 10 lifts it: reaped at 11.6.
	floor := keepAlive(2)
	floor.MinWarm = 1
	st, lives := replayScripted(t, floor, []float64{0.5}, 20, map[int]func(simulator.ControlPlane){
		10: func(cp simulator.ControlPlane) { cp.SetDirective("F1", keepAlive(2)) },
	})
	for _, live := range lives {
		if live[4] != 1 || live[11] != 1 || live[12] != 0 {
			t.Errorf("live instances at windows 4, 11, 12 = %d, %d, %d; want 1, 1, 0", live[4], live[11], live[12])
		}
	}
	if want := 11.6 - 0.5; !near(st.CPUSeconds, want, 1e-9) {
		t.Errorf("billed %.6f container-seconds, want %.6f", st.CPUSeconds, want)
	}
}

// Ten thousand batches on four instances leave at most one keep-alive entry
// per instance in the queue, not one per batch. The runtime is never started:
// the test runs each event itself, at its deadline.
// Every entry queued after the last arrival comes due (keep-alive 1000 s), so
// draining the queue counts them: at most one per in-flight batch and two
// per instance, the entry and its one re-push when its deadline has moved.
func TestQueueDoesNotGrowWithCompletedBatches(t *testing.T) {
	const instances, bound = 4, 4 + 2*4 + 2 // in-flight batches + entries and re-pushes + slack
	clk := clock.NewFake()
	rt, err := New(Config{App: testChain([]float64{0.1}, 1.0), SLA: 10, Clock: clk}, &staticDriver{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(rt.Close)
	rt.eng.SetDirective("F1", keepAlive(1000))
	step := func() { // run the earliest queued event at its deadline
		at, _ := rt.eng.NextAt()
		clk.AdvanceTo(at)
		rt.readClock()
		rt.eng.HandleNext()
	}
	for i := 0; i < 10000; i++ {
		arrival := 2 + float64(i)*0.035
		for at, ok := rt.eng.NextAt(); ok && at <= arrival; at, ok = rt.eng.NextAt() {
			step()
		}
		clk.AdvanceTo(arrival)
		if _, err := rt.Invoke(context.Background()); err != nil {
			t.Fatalf("Invoke at %v: %v", arrival, err)
		}
	}
	drained := 0
	for _, ok := rt.eng.NextAt(); ok; _, ok = rt.eng.NextAt() {
		step()
		drained++
	}
	if st := rt.eng.Stats(); st.Executions != 10000 || st.Inits != instances || st.Completed != 10000 {
		t.Fatalf("ran %d batches on %d instances, %d completed; want 10000 on %d", st.Executions, st.Inits, st.Completed, instances)
	}
	if drained > bound {
		t.Errorf("draining the queue after the last arrival handled %d events, want at most %d", drained, bound)
	}
}

// replayPlacement replays one seeded bursty minute of a three-stage pipeline
// under two-way keep-alive batching, with cfg's placement settings.
func replayPlacement(t *testing.T, cfg Config) *simulator.RunStats {
	t.Helper()
	cfg.App, cfg.SLA, cfg.Seed = apps.Pipeline(3), 60, 99
	tr := trace.Bursty(mathx.NewRand(42), 4, 2, 6, 60)
	st := replayBoth(t, scenario{
		cfg: cfg,
		driver: func(*apps.Application) simulator.Driver {
			return &staticDriver{dir: func(dag.NodeID) simulator.Directive {
				d := keepAlive(30)
				d.Batch, d.Instances = 2, 2
				return d
			}}
		},
		trace: tr,
	})
	if st.Completed != tr.Len() || st.TotalCost <= 0 {
		t.Fatalf("placement run completed %d/%d at cost %v: %s", st.Completed, tr.Len(), st.TotalCost, st.Summary())
	}
	return st
}

// TestServingPlacementOffByteIdentical is the placement subsystem's
// byte-identity contract: a zero interference matrix plus a flat unit price
// trace must leave every run statistic — latencies, counters, billed cost —
// exactly equal to a run with the machinery absent. Any drift here means the
// interference/pricing gates leak into default runs.
func TestServingPlacementOffByteIdentical(t *testing.T) {
	plain := replayPlacement(t, Config{Cluster: hardware.UnboundedCluster(3), Placement: simulator.PlacePack})
	gated := replayPlacement(t, Config{
		Cluster: hardware.UnboundedCluster(3), Placement: simulator.PlacePack,
		Interference: placement.NewModel(placement.ZeroMatrix()),
		PriceTrace:   hardware.FlatTrace(1),
	})
	if !reflect.DeepEqual(plain, gated) {
		t.Fatalf("placement-off run diverged from plain run:\nplain: %s\ngated: %s",
			plain.Summary(), gated.Summary())
	}
}

// A hot interference model must perturb the run (the guard that keeps
// TestServingPlacementOffByteIdentical from passing vacuously), and spreading
// over three nodes must meet no more co-location pressure than packing.
func TestServingInterferencePerturbs(t *testing.T) {
	hot := &placement.Model{Matrix: placement.DefaultMatrix(), Scale: 5}
	plain := replayPlacement(t, Config{Cluster: hardware.UnboundedCluster(3), Placement: simulator.PlacePack})
	pack := replayPlacement(t, Config{Cluster: hardware.UnboundedCluster(3), Placement: simulator.PlacePack, Interference: hot})
	if pack.InterferedInits+pack.InterferedBatches == 0 || pack.InterferenceSeconds <= 0 {
		t.Fatalf("packing under a hot interference model interfered with nothing: %s", pack.Summary())
	}
	if reflect.DeepEqual(plain.E2E, pack.E2E) {
		t.Fatal("interference model left every latency untouched")
	}
	spread := replayPlacement(t, Config{Cluster: hardware.UnboundedCluster(3), Placement: simulator.PlaceSpread, Interference: hot})
	if spread.InterferenceSeconds > pack.InterferenceSeconds {
		t.Errorf("spread accrued more interference (%.3fs) than pack (%.3fs)",
			spread.InterferenceSeconds, pack.InterferenceSeconds)
	}
}

// A preemption window withdraws its node mid-run, evicting the containers on
// it, and restores it afterwards; every request still completes by failing
// over to the other nodes.
func TestServingPreemptionWindow(t *testing.T) {
	st := replayPlacement(t, Config{
		Cluster: hardware.UnboundedCluster(3), Placement: simulator.PlaceSpread,
		PriceTrace: &hardware.PriceTrace{
			Preemptions: []hardware.PreemptionWindow{{Node: 0, Start: 20, End: 40}},
		},
	})
	if st.Preemptions != 1 {
		t.Fatalf("Preemptions = %d, want 1", st.Preemptions)
	}
	if st.PreemptedContainers == 0 {
		t.Fatal("preemption window evicted no containers")
	}
}
