package simulator

import (
	"testing"

	"smiless/internal/apps"
	"smiless/internal/coldstart"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/placement"
	"smiless/internal/trace"
)

// The placement behaviours themselves are checked against both front ends
// in internal/serving; these tests read what only the engine holds: the
// Summary gate and the nodes' state.

// placementRun runs one seeded simulation on the default cluster with the
// given (possibly nil) interference model and price trace attached, calling
// onWindow at every decision window.
func placementRun(t *testing.T, model *placement.Model, pt *hardware.PriceTrace, onWindow func(e *Engine, now int)) *RunStats {
	t.Helper()
	dir := Directive{Config: cpu(4), Policy: coldstart.KeepAlive, KeepAlive: 30, Batch: 2, Instances: 2}
	d := &scripted{dir: dir, onWindow: func(cp ControlPlane, w int) {
		if onWindow != nil {
			onWindow(cp.(*Engine), w)
		}
	}}
	sim := MustNew(Config{App: apps.Pipeline(3), SLA: 60, Seed: 99, Interference: model, PriceTrace: pt}, d)
	st := sim.MustRun(trace.Bursty(mathx.NewRand(42), 20, 2, 3, 600))
	if st.Completed == 0 || st.TotalCost <= 0 {
		t.Fatal("placement run completed nothing; the test is vacuous")
	}
	return st
}

// A zero interference matrix plus a flat unit price trace leaves no trace on
// the run, so its Summary omits the placement segment and reads exactly as a
// run without the machinery.
func TestPlacementOffByteIdentical(t *testing.T) {
	plain := placementRun(t, nil, nil, nil)
	gated := placementRun(t, placement.NewModel(placement.ZeroMatrix()), hardware.FlatTrace(1), nil)
	if gated.placementActive() {
		t.Fatal("zero matrix + flat trace bumped placement counters")
	}
	if plain.Summary() != gated.Summary() {
		t.Fatalf("placement-off summary diverged:\nplain: %s\ngated: %s", plain.Summary(), gated.Summary())
	}
}

// A hot interference model marks the run as placement-active, the guard that
// keeps TestPlacementOffByteIdentical's gate check from passing vacuously.
func TestInterferenceModelPerturbsRun(t *testing.T) {
	hot := placementRun(t, &placement.Model{Matrix: placement.DefaultMatrix(), Scale: 5}, nil, nil)
	if !hot.placementActive() || hot.InterferenceSeconds <= 0 {
		t.Fatalf("default interference model at scale 5 left no placement trace: %s", hot.Summary())
	}
}

// A preemption window holds its node down and empty for the whole window, and
// returns it to the pool afterwards, where first-fit placement fills it again.
func TestPreemptionWindowEvicts(t *testing.T) {
	pt := &hardware.PriceTrace{Preemptions: []hardware.PreemptionWindow{{Node: 0, Start: 100, End: 200}}}
	var downInside, usedInside, usedAfter bool
	st := placementRun(t, nil, pt, func(e *Engine, now int) {
		n := e.nodes[0]
		switch {
		case now > 100 && now < 200:
			downInside = downInside || n.health == nodeDown
			usedInside = usedInside || n.health != nodeDown || n.conts > 0
		case now > 200:
			usedAfter = usedAfter || (n.health == nodeUp && n.conts > 0)
		}
	})
	if st.Preemptions != 1 || st.PreemptedContainers == 0 {
		t.Fatalf("Preemptions = %d evicting %d containers, want 1 evicting some", st.Preemptions, st.PreemptedContainers)
	}
	if !downInside || usedInside {
		t.Error("node 0 was not held down and empty throughout its preemption window")
	}
	if !usedAfter {
		t.Error("node 0 hosted no container after its preemption window ended")
	}
}
