package serving

import (
	"context"
	"reflect"
	"testing"

	"smiless/internal/apps"
	"smiless/internal/coldstart"
	"smiless/internal/controller"
	"smiless/internal/dag"
	"smiless/internal/faults"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/perfmodel"
	"smiless/internal/simulator"
	"smiless/internal/trace"
)

// diffCase is one seeded trace for TestDifferentialSimulatorServing.
type diffCase struct {
	name      string
	app       *apps.Application
	nodes     int
	placement simulator.PlacementPolicy
	faults    *faults.Plan
	driver    func(app *apps.Application) simulator.Driver
	trace     *trace.Trace
}

// retryHedgeDriver keeps two-way batches warm under a retry policy with a
// per-attempt timeout and hedging, so injected crashes, timeouts and slow
// executions all take their recovery paths.
func retryHedgeDriver(*apps.Application) simulator.Driver {
	return &staticDriver{dir: func(dag.NodeID) simulator.Directive {
		return simulator.Directive{
			Config: hardware.Config{Kind: hardware.CPU, Cores: 4}, Policy: coldstart.KeepAlive,
			KeepAlive: 4, Batch: 2, Instances: 4,
			Retry:      faults.RetryPolicy{MaxAttempts: 4, Timeout: 3, BaseBackoff: 0.05, MaxBackoff: 0.4},
			HedgeDelay: 0.5,
		}
	}}
}

// naiveController is the SMIless controller on the persistence forecaster:
// per-window decisions, re-plans, scheduled and reactive pre-warms.
func naiveController(app *apps.Application) simulator.Driver {
	return controller.New(hardware.DefaultCatalog(), app.TrueProfiles(perfmodel.DefaultUncertainty), 2,
		controller.Options{Forecaster: "naive", SLAMargin: 0.7, Seed: 5})
}

func diffCases() []diffCase {
	// Arrivals exactly on decision-window boundaries, amid Poisson traffic.
	boundaries := trace.Poisson(mathx.NewRand(21), 1.5, 40)
	for k := 1; k <= 30; k += 3 {
		boundaries.Arrivals = append(boundaries.Arrivals, float64(k), float64(k))
	}
	return []diffCase{
		{
			name: "window-boundaries", app: apps.ImageQuery(), nodes: 1,
			driver: naiveController,
			trace:  trace.Merge(boundaries),
		},
		{
			name: "retry-hedge", app: apps.VoiceAssistant(), nodes: 1,
			faults: &faults.Plan{Seed: 4, Default: faults.Rates{ExecFail: 0.08, InitFail: 0.05, Straggler: 0.1}},
			driver: retryHedgeDriver,
			trace:  trace.Poisson(mathx.NewRand(22), 2, 40),
		},
		{
			name: "crash-partition", app: apps.ImageQuery(), nodes: 3, placement: simulator.PlaceSpread,
			faults: &faults.Plan{NodeFaults: []faults.NodeFault{
				{Node: 0, Kind: faults.NodeCrash, Start: 6.3, End: 15.1},
				{Node: 1, Kind: faults.NodePartition, Start: 9.6, End: 13.2},
				{Node: 2, Kind: faults.NodeCrash, Start: 24.7, End: 25.05},
			}},
			driver: retryHedgeDriver,
			trace: trace.Merge(
				trace.Bursty(mathx.NewRand(23), 3, 4, 5, 40),
				trace.Poisson(mathx.NewRand(24), 0.5, 40),
			),
		},
	}
}

// TestDifferentialSimulatorServing replays each trace through Simulator.Run
// and through a Runtime on a fake clock — every arrival admitted at its
// exact trace instant once everything due by then has run, and the runtime
// closed at the instant the simulation ended — and requires DeepEqual
// RunStats: one engine, one same-instant order, two front ends. One field
// differs by front end: the simulator's decision windows stop one past the
// trace horizon while the runtime's cadence runs until it closes, so the
// runtime may sample PodSamples a few more times; they are compared on the
// simulator's windows.
func TestDifferentialSimulatorServing(t *testing.T) {
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			// Each case steps its own fake clock; run side by side, their
			// stepping waits overlap.
			t.Parallel()
			nodes := make([]hardware.NodeSpec, tc.nodes)
			for i := range nodes {
				nodes[i] = hardware.NodeSpec{Cores: 1 << 20, GPUs: 1 << 10} // capacity never binds
			}
			sim, err := simulator.New(simulator.Config{
				App: tc.app, SLA: 2, Seed: 7, Faults: tc.faults, Placement: tc.placement,
				Cluster: hardware.ClusterSpec{Nodes: nodes},
			}, tc.driver(tc.app))
			if err != nil {
				t.Fatal(err)
			}
			want := sim.MustRun(tc.trace)
			end := sim.Now()

			rt, fake := newTestRuntime(t, Config{
				App: tc.app, SLA: 2, Seed: 7, Faults: tc.faults, Placement: tc.placement, Nodes: tc.nodes,
			}, tc.driver(tc.app))
			// stepTo runs everything due by at, then stands the clock on at.
			stepTo := func(at float64) {
				stepUntil(t, rt, fake, func() bool {
					next, ok := fake.NextDeadline()
					return !ok || next > at
				})
				fake.AdvanceTo(at)
			}
			for _, at := range tc.trace.Arrivals {
				stepTo(at)
				if _, err := rt.Invoke(context.Background()); err != nil {
					t.Fatalf("Invoke at %v: %v", at, err)
				}
			}
			stepTo(end)
			stepUntil(t, rt, fake, rt.Quiesced)
			rt.Close()
			got := rt.Snapshot()

			if want.Completed == 0 || (tc.faults != nil && want.Retries+want.Failovers == 0) {
				t.Fatalf("the scenario reached nothing it names: %s", want.Summary())
			}
			if n := len(want.PodSamples); len(got.PodSamples) < n || !reflect.DeepEqual(got.PodSamples[:n], want.PodSamples) {
				t.Errorf("PodSamples: the runtime's first %d windows differ from the simulator's", n)
			}
			got.PodSamples = want.PodSamples
			if !reflect.DeepEqual(got, want) {
				t.Errorf("serving diverged from the simulator:\nsimulator: %s\nserving:   %s\n%s",
					want.Summary(), got.Summary(), firstDiff(want, got))
			}
		})
	}
}

// firstDiff names the RunStats fields that differ.
func firstDiff(a, b *simulator.RunStats) string {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	out := ""
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			out += " " + va.Type().Field(i).Name
		}
	}
	return "fields that differ:" + out
}
