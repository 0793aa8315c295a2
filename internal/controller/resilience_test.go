package controller

import (
	"testing"

	"smiless/internal/apps"
	"smiless/internal/coldstart"
	"smiless/internal/faults"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/perfmodel"
	"smiless/internal/simulator"
	"smiless/internal/trace"
)

func newResilientFixture(t *testing.T, plan *faults.Plan) (*SMIless, *simulator.Simulator) {
	t.Helper()
	app := apps.ImageQuery()
	profiles := app.TrueProfiles(perfmodel.DefaultUncertainty)
	drv := New(hardware.DefaultCatalog(), profiles, 2.0, liteOptions(1))
	sim := simulator.MustNew(simulator.Config{App: app, SLA: 2.0, Seed: 1, Faults: plan}, drv)
	return drv, sim
}

func faultyPlan() *faults.Plan {
	return &faults.Plan{
		Default: faults.Rates{InitFail: 0.05, ExecFail: 0.05, Straggler: 0.05, StragglerFactor: 6},
		Seed:    7,
	}
}

func TestResilienceGatedOnFaults(t *testing.T) {
	// Fault-free run: no retry/hedge directives, no breakers.
	drv, sim := newResilientFixture(t, nil)
	drv.Setup(sim)
	if drv.resilient {
		t.Fatal("resilient must stay false without fault injection")
	}
	for _, id := range sim.App().Graph.Nodes() {
		d := sim.GetDirective(id)
		if d.Retry.Enabled() || d.HedgeDelay != 0 {
			t.Fatalf("%s: fault-free directive carries resilience policy: %+v", id, d)
		}
	}
}

func TestRetryDirectivesInstalledUnderFaults(t *testing.T) {
	drv, sim := newResilientFixture(t, faultyPlan())
	drv.Setup(sim)
	if !drv.resilient {
		t.Fatal("resilient must be true when the run injects faults")
	}
	for _, id := range sim.App().Graph.Nodes() {
		d := sim.GetDirective(id)
		if d.Retry.MaxAttempts != 3 {
			t.Errorf("%s: MaxAttempts = %d, want 3", id, d.Retry.MaxAttempts)
		}
		if d.Retry.Timeout < drv.SLA {
			t.Errorf("%s: timeout %v below SLA %v", id, d.Retry.Timeout, drv.SLA)
		}
		if d.HedgeDelay <= 0 {
			t.Errorf("%s: hedge delay not installed", id)
		}
	}
}

func TestBreakerTripRoutesToFallback(t *testing.T) {
	drv, sim := newResilientFixture(t, faultyPlan())
	drv.Setup(sim)
	ids := sim.App().Graph.Nodes()
	victim := ids[0]
	planCfg := drv.plan.Configs[victim]

	// Overwhelm the victim's breaker, then let the controller observe.
	drv.breakers[victim].Observe(5, 40, 0)
	drv.updateBreakers(sim, 5)

	if !drv.fallback[victim] {
		t.Fatal("breaker trip must mark the function for fallback")
	}
	d := sim.GetDirective(victim)
	if d.Config != drv.fallbackCfg {
		t.Fatalf("directive config = %+v, want fallback %+v (plan was %+v)",
			d.Config, drv.fallbackCfg, planCfg)
	}
	if d.Policy != coldstart.KeepAlive {
		t.Errorf("fallback policy = %v, want KeepAlive", d.Policy)
	}
	if sim.Stats().BreakerTrips == 0 {
		t.Error("BreakerTrips not mirrored into RunStats")
	}

	// Recovery: cooldown elapses (default 30 s), probes succeed, the plan
	// configuration is restored.
	drv.breakers[victim].Observe(40, 0, 3)
	drv.updateBreakers(sim, 40)
	if drv.fallback[victim] {
		t.Fatal("breaker should have closed after successful probes")
	}
	if got := sim.GetDirective(victim).Config; got != planCfg {
		t.Errorf("config after recovery = %+v, want plan %+v", got, planCfg)
	}
}

func TestDegradeInstallsConservativePlan(t *testing.T) {
	drv, sim := newResilientFixture(t, nil)
	// Degradation must work even without fault injection (an optimizer
	// failure is not an injected fault).
	drv.degrade(sim, 10)
	if !drv.degraded {
		t.Fatal("degraded flag not set")
	}
	if drv.plan == nil {
		t.Fatal("degrade must install a plan")
	}
	fb := fallbackConfig(drv.Catalog)
	for _, id := range sim.App().Graph.Nodes() {
		if got := drv.plan.Configs[id]; got != fb {
			t.Errorf("%s: degraded config = %+v, want fallback %+v", id, got, fb)
		}
		if drv.plan.Decisions[id].Policy != coldstart.KeepAlive {
			t.Errorf("%s: degraded policy = %v, want KeepAlive", id, drv.plan.Decisions[id].Policy)
		}
		if sim.GetDirective(id).Config != fb {
			t.Errorf("%s: directive not installed", id)
		}
	}
}

func TestFallbackConfigPrefersFourCoreCPU(t *testing.T) {
	if got := fallbackConfig(hardware.DefaultCatalog()); got.Kind != hardware.CPU || got.Cores != 4 {
		t.Errorf("default catalog fallback = %+v, want 4-core CPU", got)
	}
	if got := fallbackConfig(hardware.CPUOnlyCatalog()); got.Kind != hardware.CPU {
		t.Errorf("CPU-only catalog fallback = %+v, want CPU", got)
	}
}

func TestRetryAdjustedSLAReservesBudget(t *testing.T) {
	if got := coldstart.RetryAdjustedSLA(2.0, 0.15, 0.4); got != 1.85 {
		t.Errorf("adjusted = %v, want 1.85", got)
	}
	if got := coldstart.RetryAdjustedSLA(2.0, 5, 0.4); got != 0.8 {
		t.Errorf("floored = %v, want 0.8", got)
	}
	if got := coldstart.RetryAdjustedSLA(2.0, 0, 0.4); got != 2.0 {
		t.Errorf("zero budget = %v, want 2.0", got)
	}
}

func TestSMIlessSurvivesChaosRun(t *testing.T) {
	// End to end: SMIless under crash + straggler injection still resolves
	// every request, most successfully, and the run is deterministic.
	run := func() *simulator.RunStats {
		app := apps.ImageQuery()
		profiles := app.TrueProfiles(perfmodel.DefaultUncertainty)
		drv := New(hardware.DefaultCatalog(), profiles, 2.0, liteOptions(3))
		sim := simulator.MustNew(simulator.Config{
			App: app, SLA: 2.0, Seed: 3,
			Faults: &faults.Plan{
				Default:    faults.Rates{InitFail: 0.08, ExecFail: 0.06, Straggler: 0.1, StragglerFactor: 6},
				NodeFaults: []faults.NodeFault{{Node: 0, Kind: faults.NodeCrash, Start: 200, End: 260}},
				Seed:       13,
			},
		}, drv)
		r := mathx.NewRand(4)
		return sim.MustRun(trace.Poisson(r, 0.12, 600))
	}
	st := run()
	total := st.Completed + st.FailedInvocations
	if total == 0 {
		t.Fatal("no requests resolved")
	}
	if st.Availability() < 0.85 {
		t.Errorf("availability %.3f too low: retry/hedging not absorbing faults (failed=%d)",
			st.Availability(), st.FailedInvocations)
	}
	if st.Retries == 0 {
		t.Error("expected retries under injected crashes")
	}
	st2 := run()
	if st.TotalCost != st2.TotalCost || st.Completed != st2.Completed ||
		st.FailedInvocations != st2.FailedInvocations {
		t.Error("chaos run not deterministic under fixed seeds")
	}
}
