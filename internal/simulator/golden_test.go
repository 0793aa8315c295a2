package simulator_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"smiless/internal/apps"
	"smiless/internal/coldstart"
	"smiless/internal/controller"
	"smiless/internal/faults"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/perfmodel"
	"smiless/internal/simulator"
	"smiless/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from this build")

// goldenDigest is what an executor-loop change must leave bit-identical:
// every latency sample, the lifecycle and resilience counters, and the money
// spent up to the last arrival. Final TotalCost is deliberately absent: it
// depends on the instant the run ends (see Simulator.Run), which is the one
// thing such a change may move.
type goldenDigest struct {
	Completed, Failed, Violations                       int
	Inits, WarmStarts, Executions, BatchSum             int
	InitGated, CapacityBlocked                          int
	InitFailures, ExecFailures, Timeouts, Retries       int
	Stragglers, HedgesLaunched, HedgesWon               int
	NodeDownEvents, EvictedContainers, Failovers        int
	Preemptions, PreemptedContainers, BreakerTrips      int
	DegradedWindows                                     int
	E2E, E2EArrival                                     string // len:fnv64a of the raw float bits
	CostAtLastArrival, CostSeries, AccruedAtLastArrival string
}

func hashFloats(xs []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		_, _ = h.Write(b[:]) // hash.Hash.Write never fails
	}
	return fmt.Sprintf("%d:%016x", len(xs), h.Sum64())
}

// costProbe wraps a driver and samples spend (billed + accrued) at every
// decision window up to the trace horizon; atLast is the first sample taken
// after the last arrival.
type costProbe struct {
	simulator.Driver
	lastArrival, horizon float64
	series               []float64
	atLast, accruedLast  float64
	seenLast             bool
}

func (p *costProbe) OnWindow(cp simulator.ControlPlane, now float64) {
	p.Driver.OnWindow(cp, now)
	if now > p.horizon {
		return
	}
	spend := cp.Stats().TotalCost + cp.AccruedCost()
	p.series = append(p.series, spend)
	if !p.seenLast && now > p.lastArrival {
		p.seenLast, p.atLast, p.accruedLast = true, spend, cp.AccruedCost()
	}
}

// goldenStatic is a fixed keep-alive directive with a retry policy, so the
// fault scenarios exercise retries and timeouts rather than losing work.
type goldenStatic struct{}

func (goldenStatic) Name() string { return "static" }
func (goldenStatic) Setup(cp simulator.ControlPlane) {
	for _, id := range cp.App().Graph.Nodes() {
		cp.SetDirective(id, simulator.Directive{
			Config: hardware.Config{Kind: hardware.CPU, Cores: 4}, Policy: coldstart.KeepAlive,
			KeepAlive: 7, Batch: 3, Instances: 6,
			Retry:      faults.RetryPolicy{MaxAttempts: 4, Timeout: 6, BaseBackoff: 0.05, MaxBackoff: 0.4},
			HedgeDelay: 0.8,
		})
	}
}
func (goldenStatic) OnWindow(simulator.ControlPlane, float64) {}

// goldenShifting moves every function through the cold-start policies and
// keep-alive lengths on a fixed schedule, staggered by function index: long
// keep-alive, a cut to a short one while long timers are pending, AlwaysOn,
// Prewarm with reactive and scheduled pre-warms, and the unset-KeepAlive
// grace period under a MinWarm floor. It exists to cross every idle-timer
// edge an executor rewrite could get wrong.
type goldenShifting struct{ window int }

func (*goldenShifting) Name() string { return "shifting-prewarm" }
func (d *goldenShifting) Setup(cp simulator.ControlPlane) {
	d.install(cp)
}
func (d *goldenShifting) OnWindow(cp simulator.ControlPlane, now float64) {
	d.window++
	d.install(cp)
}
func (d *goldenShifting) install(cp simulator.ControlPlane) {
	for i, id := range cp.App().Graph.Nodes() {
		dir := simulator.Directive{
			Config: hardware.Config{Kind: hardware.CPU, Cores: 4}, Batch: 2, Instances: 5,
			PrewarmLead: 1.5, PathOffset: 0.2 * float64(i),
			Retry: faults.RetryPolicy{MaxAttempts: 3, Timeout: 6, BaseBackoff: 0.05, MaxBackoff: 0.4},
		}
		switch phase := ((d.window + 7*i) / 12) % 5; phase {
		case 0:
			dir.Policy, dir.KeepAlive = coldstart.KeepAlive, 30
		case 1:
			dir.Policy, dir.KeepAlive = coldstart.KeepAlive, 1.5
		case 2:
			dir.Policy, dir.KeepAlive = coldstart.AlwaysOn, 4
		case 3:
			dir.Policy, dir.KeepAlive, dir.PrewarmOnArrival = coldstart.Prewarm, 3, true
			cp.SchedulePrewarm(id, cp.Now()+1.25)
		case 4:
			dir.Policy, dir.MinWarm = coldstart.KeepAlive, 1
		}
		cp.SetDirective(id, dir)
	}
}

func goldenDriver(name string, app *apps.Application, sla float64) simulator.Driver {
	switch name {
	case "static":
		return goldenStatic{}
	case "smiless-naive":
		return controller.New(hardware.DefaultCatalog(), app.TrueProfiles(perfmodel.DefaultUncertainty), sla,
			controller.Options{Forecaster: "naive", SLAMargin: 0.7, Seed: 5})
	case "shifting":
		return &goldenShifting{}
	}
	panic("unknown golden driver " + name)
}

// goldenScenario fills the fault and pricing fields of a config. First-fit
// placement puts the whole fleet on node 0, so that is the node the crash,
// the partition and the preemption hit.
func goldenScenario(name string, cfg *simulator.Config) {
	switch name {
	case "clean":
	case "faults":
		cfg.Faults = &faults.Plan{
			Seed:    11,
			Default: faults.Rates{ExecFail: 0.04, InitFail: 0.03, Straggler: 0.05},
			NodeFaults: []faults.NodeFault{
				{Node: 0, Kind: faults.NodeCrash, Start: 31.3, End: 38.9},
				{Node: 0, Kind: faults.NodePartition, Start: 70.2, End: 74.6},
			},
		}
	case "spot":
		cfg.PriceTrace = &hardware.PriceTrace{
			Points: []hardware.PricePoint{{At: 0, Multiplier: 0.7}, {At: 40.5, Multiplier: 2.4}, {At: 58.25, Multiplier: 0.7}},
			Preemptions: []hardware.PreemptionWindow{
				{Node: 0, Start: 40.5, End: 58.25},
			},
		}
	default:
		panic("unknown golden scenario " + name)
	}
}

func runGolden(t *testing.T, app *apps.Application, sla float64, driver, scenario string) goldenDigest {
	t.Helper()
	// Bursts separated by gaps longer than the short keep-alives, over a thin
	// background, so instances expire, are reused and are pre-warmed.
	tr := trace.Merge(
		trace.Bursty(mathx.NewRand(3), 8, 5, 6, 110),
		trace.Poisson(mathx.NewRand(4), 0.15, 110),
	)
	if tr.Len() < 50 {
		t.Fatalf("golden trace too small: %d arrivals", tr.Len())
	}
	cfg := simulator.Config{App: app, SLA: sla, Seed: 9}
	goldenScenario(scenario, &cfg)
	probe := &costProbe{
		Driver:      goldenDriver(driver, app, sla),
		lastArrival: tr.Arrivals[tr.Len()-1], horizon: tr.Horizon,
	}
	sim, err := simulator.New(cfg, probe)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !probe.seenLast {
		t.Fatal("no decision window fell between the last arrival and the horizon")
	}
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	return goldenDigest{
		Completed: st.Completed, Failed: st.FailedInvocations, Violations: st.Violations,
		Inits: st.Inits, WarmStarts: st.WarmStarts, Executions: st.Executions, BatchSum: st.BatchSum,
		InitGated: st.InitGated, CapacityBlocked: st.CapacityBlocked,
		InitFailures: st.InitFailures, ExecFailures: st.ExecFailures, Timeouts: st.Timeouts, Retries: st.Retries,
		Stragglers: st.Stragglers, HedgesLaunched: st.HedgesLaunched, HedgesWon: st.HedgesWon,
		NodeDownEvents: st.NodeDownEvents, EvictedContainers: st.EvictedContainers, Failovers: st.Failovers,
		Preemptions: st.Preemptions, PreemptedContainers: st.PreemptedContainers, BreakerTrips: st.BreakerTrips,
		DegradedWindows: st.DegradedWindows,
		E2E:             hashFloats(st.E2E), E2EArrival: hashFloats(st.E2EArrival),
		CostAtLastArrival: g(probe.atLast), CostSeries: hashFloats(probe.series), AccruedAtLastArrival: g(probe.accruedLast),
	}
}

// TestGoldenReplay replays {Image-Query, Voice-Assistant, Pipeline(12)} ×
// {static keep-alive, SMIless-naive, policy-shifting} × {clean, faults, spot}
// at fixed seeds against digests recorded before the executor loop was
// rebuilt on internal/eventq (testdata/golden.json; regenerate with
// -update-golden only for a change that is meant to move behaviour).
func TestGoldenReplay(t *testing.T) {
	path := filepath.Join("testdata", "golden.json")
	want := map[string]goldenDigest{}
	if !*updateGolden {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]goldenDigest{}
	appsUnderTest := []struct {
		app *apps.Application
		sla float64
	}{{apps.ImageQuery(), 2}, {apps.VoiceAssistant(), 2}, {apps.Pipeline(12), 6}}
	for _, a := range appsUnderTest {
		for _, driver := range []string{"static", "smiless-naive", "shifting"} {
			for _, scenario := range []string{"clean", "faults", "spot"} {
				name := a.app.Name + "/" + driver + "/" + scenario
				d := runGolden(t, a.app, a.sla, driver, scenario)
				got[name] = d
				if *updateGolden {
					continue
				}
				w, ok := want[name]
				if !ok {
					t.Errorf("%s: no golden digest recorded", name)
				} else if !reflect.DeepEqual(d, w) {
					t.Errorf("%s: run diverged from the recorded digest\n got %+v\nwant %+v", name, d, w)
				}
			}
		}
	}
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The scenarios are only a safety net if they reach the paths they name.
	for name, d := range got {
		switch {
		case d.Completed == 0:
			t.Errorf("%s: nothing completed", name)
		case strings.HasSuffix(name, "/faults") && (d.ExecFailures == 0 || d.Retries == 0 || d.Failovers == 0 || d.NodeDownEvents < 2):
			t.Errorf("%s: fault plan did not reach crash, retry, failover and both node faults: %+v", name, d)
		case strings.HasSuffix(name, "/spot") && (d.Preemptions != 1 || d.PreemptedContainers == 0):
			t.Errorf("%s: preemption window evicted nothing: %+v", name, d)
		}
	}
}
