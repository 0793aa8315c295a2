package serving

import (
	"context"
	"reflect"
	"sort"
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

// scenario is one run that replayBoth replays through both front ends.
type scenario struct {
	// cfg configures the runtime; the simulator's Config is derived from it,
	// over cfg.Nodes nodes whose capacity never binds.
	cfg    Config
	driver func(app *apps.Application) simulator.Driver
	trace  *trace.Trace
	// chaosAPI takes the plan's NodeFaults out of the runtime's plan and
	// hands them to it as KillNode, RestartNode and SetPartitioned calls at
	// the same instants.
	chaosAPI bool
}

// diffCase is one seeded trace for TestDifferentialSimulatorServing.
type diffCase struct {
	name string
	scenario
	// trains requires the controller's forecaster to have trained and
	// scored forecasts.
	trains bool
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
// per-window decisions, re-plans, scheduled and reactive pre-warms. On a
// trace too short for the 64 window-level gaps the inter-arrival role needs,
// the forecaster never trains and the moving-window estimate plans.
func naiveController(app *apps.Application) simulator.Driver {
	return controller.New(hardware.DefaultCatalog(), app.TrueProfiles(perfmodel.DefaultUncertainty), 2,
		controller.Options{Forecaster: "naive", SLAMargin: 0.7, Seed: 5})
}

// trainingController is naiveController with a train/retrain schedule that
// a few hundred seconds of sparse traffic reaches: the forecasts it plans
// with are the trained family's.
func trainingController(app *apps.Application) simulator.Driver {
	return controller.New(hardware.DefaultCatalog(), app.TrueProfiles(perfmodel.DefaultUncertainty), 2,
		controller.Options{Forecaster: "naive", TrainAfter: 50, RetrainEvery: 100, SLAMargin: 0.7, Seed: 5})
}

func diffCases() []diffCase {
	// Arrivals exactly on decision-window boundaries, amid Poisson traffic.
	boundaries := trace.Poisson(mathx.NewRand(21), 1.5, 40)
	for k := 1; k <= 30; k += 3 {
		boundaries.Arrivals = append(boundaries.Arrivals, float64(k), float64(k))
	}
	crashPartition := scenario{
		cfg: Config{
			App: apps.ImageQuery(), SLA: 2, Seed: 7, Nodes: 3, Placement: simulator.PlaceSpread,
			Faults: &faults.Plan{NodeFaults: []faults.NodeFault{
				{Node: 0, Kind: faults.NodeCrash, Start: 6.3, End: 15.1},
				{Node: 1, Kind: faults.NodePartition, Start: 9.6, End: 13.2},
				{Node: 2, Kind: faults.NodeCrash, Start: 24.7, End: 25.05},
			}},
		},
		driver: retryHedgeDriver,
		trace: trace.Merge(
			trace.Bursty(mathx.NewRand(23), 3, 4, 5, 40),
			trace.Poisson(mathx.NewRand(24), 0.5, 40),
		),
	}
	chaosAPI := crashPartition
	chaosAPI.chaosAPI = true
	return []diffCase{
		{name: "window-boundaries", scenario: scenario{
			cfg:    Config{App: apps.ImageQuery(), SLA: 2, Seed: 7},
			driver: naiveController,
			trace:  trace.Merge(boundaries),
		}},
		{name: "retry-hedge", scenario: scenario{
			cfg: Config{
				App: apps.VoiceAssistant(), SLA: 2, Seed: 7,
				Faults: &faults.Plan{Seed: 4, Default: faults.Rates{ExecFail: 0.08, InitFail: 0.05, Straggler: 0.1}},
			},
			driver: retryHedgeDriver,
			trace:  trace.Poisson(mathx.NewRand(22), 2, 40),
		}},
		{name: "crash-partition", scenario: crashPartition},
		{name: "chaos-api", scenario: chaosAPI},
		{name: "forecast-trains", trains: true, scenario: scenario{
			cfg:    Config{App: apps.ImageQuery(), SLA: 2, Seed: 7},
			driver: trainingController,
			trace:  trace.Poisson(mathx.NewRand(25), 0.6, 400),
		}},
	}
}

// TestDifferentialSimulatorServing replays each case through both front ends
// (replayBoth): one engine, one same-instant order, two front ends. The
// chaos-api case drives the crash-partition schedule through the runtime's
// chaos API instead of its fault plan, and must match the simulator running
// that schedule as NodeFaults.
func TestDifferentialSimulatorServing(t *testing.T) {
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			// Each case steps its own fake clock; run side by side, their
			// stepping waits overlap.
			t.Parallel()
			st := replayBoth(t, tc.scenario)
			if st.Completed == 0 || (tc.cfg.Faults != nil && st.Retries+st.Failovers == 0) {
				t.Fatalf("the scenario reached nothing it names: %s", st.Summary())
			}
			if tc.trains && (st.ForecastName != "naive" || st.ForecastCount.Samples[0] == 0 || st.ForecastIT.Refits == 0) {
				t.Fatalf("the forecaster never trained: %q, %d count samples, %d refits",
					st.ForecastName, st.ForecastCount.Samples[0], st.ForecastIT.Refits)
			}
		})
	}
}

// replayBoth replays sc.trace through Simulator.Run and through a Runtime on
// a fake clock — every arrival admitted at its exact trace instant once
// everything due by then has run, and the runtime closed at the instant the
// simulation ended — and requires DeepEqual RunStats. It builds one driver
// per front end with sc.driver and returns the simulator's statistics.
//
// One field differs by front end: the simulator's decision windows stop one
// past the trace horizon while the runtime's cadence runs until it closes,
// so the runtime may sample PodSamples a few more times; they are compared
// on the simulator's windows.
func replayBoth(t *testing.T, sc scenario) *simulator.RunStats {
	t.Helper()
	cfg := sc.cfg
	nodes := make([]hardware.NodeSpec, max(cfg.Nodes, 1))
	for i := range nodes {
		nodes[i] = hardware.NodeSpec{Cores: 1 << 20, GPUs: 1 << 10} // capacity never binds
	}
	sim, err := simulator.New(simulator.Config{
		App: cfg.App, SLA: cfg.SLA, Window: cfg.Window, Seed: cfg.Seed, Faults: cfg.Faults,
		Placement: cfg.Placement, Interference: cfg.Interference, PriceTrace: cfg.PriceTrace,
		Cluster: hardware.ClusterSpec{Nodes: nodes},
	}, sc.driver(cfg.App))
	if err != nil {
		t.Fatal(err)
	}
	want := sim.MustRun(sc.trace)
	end := sim.Now()

	var calls []chaosCall
	if sc.chaosAPI {
		plan := *cfg.Faults
		plan.NodeFaults = nil
		cfg.Faults = &plan
		calls = chaosCalls(sc.cfg.Faults.NodeFaults)
	}
	rt, fake := newTestRuntime(t, cfg, sc.driver(cfg.App))
	// Like a queued node event in the simulator, a chaos call precedes an
	// arrival on the same instant.
	chaosUntil := func(at float64) {
		for ; len(calls) > 0 && calls[0].at <= at; calls = calls[1:] {
			stepTo(t, rt, fake, calls[0].at)
			if err := calls[0].do(rt); err != nil {
				t.Fatalf("chaos call at %v: %v", calls[0].at, err)
			}
		}
	}
	for _, at := range sc.trace.Arrivals {
		chaosUntil(at)
		stepTo(t, rt, fake, at)
		if _, err := rt.Invoke(context.Background()); err != nil {
			t.Fatalf("Invoke at %v: %v", at, err)
		}
	}
	chaosUntil(end)
	stepTo(t, rt, fake, end)
	stepUntil(t, rt, fake, rt.Quiesced)
	rt.Close()
	got := rt.Snapshot()

	if n := len(want.PodSamples); len(got.PodSamples) < n || !reflect.DeepEqual(got.PodSamples[:n], want.PodSamples) {
		t.Errorf("PodSamples: the runtime's first %d windows differ from the simulator's", n)
	}
	got.PodSamples = want.PodSamples
	if !reflect.DeepEqual(got, want) {
		t.Errorf("serving diverged from the simulator:\nsimulator: %s\nserving:   %s\n%s",
			want.Summary(), got.Summary(), firstDiff(want, got))
	}
	return want
}

// chaosCall is one node-chaos API call the runtime receives at an instant.
type chaosCall struct {
	at float64
	do func(rt *Runtime) error
}

// chaosCalls turns a schedule of node faults into the chaos API calls that
// realize it, in time order.
func chaosCalls(nfs []faults.NodeFault) []chaosCall {
	var calls []chaosCall
	for _, nf := range nfs {
		n := nf.Node
		switch nf.Kind {
		case faults.NodeCrash:
			calls = append(calls, chaosCall{nf.Start, func(rt *Runtime) error { return rt.KillNode(n) }})
			if nf.End > nf.Start {
				calls = append(calls, chaosCall{nf.End, func(rt *Runtime) error { return rt.RestartNode(n) }})
			}
		case faults.NodePartition:
			calls = append(calls,
				chaosCall{nf.Start, func(rt *Runtime) error { return rt.SetPartitioned(n, true) }},
				chaosCall{nf.End, func(rt *Runtime) error { return rt.SetPartitioned(n, false) }})
		}
	}
	sort.SliceStable(calls, func(i, j int) bool { return calls[i].at < calls[j].at })
	return calls
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
