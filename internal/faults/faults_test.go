package faults

import (
	"math"
	"testing"

	"smiless/internal/hardware"
)

func TestPlanEnabled(t *testing.T) {
	cases := []struct {
		name string
		plan *Plan
		want bool
	}{
		{"nil", nil, false},
		{"zero", &Plan{}, false},
		{"zero-with-seed", &Plan{Seed: 42}, false},
		{"init-fail", &Plan{Default: Rates{InitFail: 0.1}}, true},
		{"exec-fail", &Plan{Default: Rates{ExecFail: 0.1}}, true},
		{"straggler", &Plan{Default: Rates{Straggler: 0.1}}, true},
		{"node-crash-only", &Plan{NodeFaults: []NodeFault{{Node: 1, Kind: NodeCrash, Start: 10, End: 20}}}, true},
		{"node-partition-only", &Plan{NodeFaults: []NodeFault{{Node: 2, Kind: NodePartition, Start: 5, End: 9}}}, true},
		{"per-fn", &Plan{PerFunction: map[string]Rates{"IR": {ExecFail: 0.2}}}, true},
		{"per-fn-zero", &Plan{PerFunction: map[string]Rates{"IR": {}}}, false},
	}
	for _, c := range cases {
		if got := c.plan.Enabled(); got != c.want {
			t.Errorf("%s: Enabled() = %v, want %v", c.name, got, c.want)
		}
		if got := NewInjector(c.plan) != nil; got != c.want {
			t.Errorf("%s: NewInjector non-nil = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestNodeFaultKindString(t *testing.T) {
	if NodeCrash.String() != "crash" || NodePartition.String() != "partition" {
		t.Errorf("kind names wrong: %q %q", NodeCrash, NodePartition)
	}
	if NodeFaultKind(99).String() != "unknown" {
		t.Errorf("out-of-range kind should render unknown")
	}
}

func TestRatesFor(t *testing.T) {
	p := &Plan{
		Default:     Rates{ExecFail: 0.1},
		PerFunction: map[string]Rates{"TRS": {ExecFail: 0.5, Straggler: 0.3}},
	}
	if r := p.RatesFor("IR"); r.ExecFail != 0.1 || r.Straggler != 0 {
		t.Errorf("default rates not applied: %+v", r)
	}
	if r := p.RatesFor("TRS"); r.ExecFail != 0.5 || r.Straggler != 0.3 {
		t.Errorf("override not applied: %+v", r)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	mk := func() *Injector {
		return NewInjector(&Plan{Default: Rates{InitFail: 0.3, ExecFail: 0.3, Straggler: 0.3}, Seed: 7})
	}
	a, b := mk(), mk()
	for i := 0; i < 200; i++ {
		af, afr := a.InitOutcome("IR")
		bf, bfr := b.InitOutcome("IR")
		if af != bf || afr != bfr {
			t.Fatalf("init outcome %d diverged", i)
		}
		af, afr = a.ExecOutcome("IR")
		bf, bfr = b.ExecOutcome("IR")
		if af != bf || afr != bfr {
			t.Fatalf("exec outcome %d diverged", i)
		}
		if a.StragglerFactor("IR") != b.StragglerFactor("IR") {
			t.Fatalf("straggler %d diverged", i)
		}
	}
}

func TestInjectorCrashFracBounds(t *testing.T) {
	in := NewInjector(&Plan{Default: Rates{InitFail: 1, ExecFail: 1}, Seed: 3})
	for i := 0; i < 500; i++ {
		fail, frac := in.InitOutcome("X")
		if !fail {
			t.Fatal("InitFail=1 must always fail")
		}
		if frac < 0.05 || frac > 0.95 {
			t.Fatalf("crash fraction %v out of (0.05, 0.95)", frac)
		}
	}
}

// TestRetryPolicyTable walks the retry state machine through the scenarios
// the gateway sees: timeout-then-success, exhausted retries, and the
// disabled zero policy.
func TestRetryPolicyTable(t *testing.T) {
	cases := []struct {
		name     string
		pol      RetryPolicy
		failures []bool // outcome of each attempt: true = failed
		// wantAttempts is how many attempts actually run before the
		// invocation resolves (success or exhaustion).
		wantAttempts int
		wantResolved bool // true = eventually succeeded
	}{
		{
			name:         "timeout-then-success",
			pol:          RetryPolicy{MaxAttempts: 3, Timeout: 1, BaseBackoff: 0.1},
			failures:     []bool{true, false},
			wantAttempts: 2,
			wantResolved: true,
		},
		{
			name:         "exhausted-retries",
			pol:          RetryPolicy{MaxAttempts: 3, BaseBackoff: 0.1},
			failures:     []bool{true, true, true},
			wantAttempts: 3,
			wantResolved: false,
		},
		{
			name:         "first-try-success",
			pol:          RetryPolicy{MaxAttempts: 5},
			failures:     []bool{false},
			wantAttempts: 1,
			wantResolved: true,
		},
		{
			name:         "zero-policy-no-retry",
			pol:          RetryPolicy{},
			failures:     []bool{true},
			wantAttempts: 1,
			wantResolved: false,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			attempts, resolved, failCount := 0, false, 0
			for {
				attempts++
				if !c.failures[attempts-1] {
					resolved = true
					break
				}
				failCount++
				if !c.pol.Allow(failCount) {
					break
				}
			}
			if attempts != c.wantAttempts || resolved != c.wantResolved {
				t.Errorf("got attempts=%d resolved=%v, want %d/%v",
					attempts, resolved, c.wantAttempts, c.wantResolved)
			}
		})
	}
}

func TestBackoffLadder(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseBackoff: 0.1, MaxBackoff: 0.35}
	cases := []struct {
		failures int
		want     float64
	}{
		{1, 0.1}, {2, 0.2}, {3, 0.35}, {4, 0.35}, // capped
	}
	for _, c := range cases {
		if got := p.Backoff(c.failures, 0.5); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Backoff(%d) = %v, want %v", c.failures, got, c.want)
		}
	}
	// Jitter spreads by ±JitterFrac and never goes negative.
	j := RetryPolicy{MaxAttempts: 2, BaseBackoff: 1, JitterFrac: 0.5}
	if got := j.Backoff(1, 0); got != 0.5 {
		t.Errorf("low-jitter backoff = %v, want 0.5", got)
	}
	if got := j.Backoff(1, 1); got != 1.5 {
		t.Errorf("high-jitter backoff = %v, want 1.5", got)
	}
	if (RetryPolicy{}).Backoff(1, 0.5) != 0 {
		t.Error("zero policy must have zero backoff")
	}
}

func TestSlackBudget(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 3, Timeout: 2, BaseBackoff: 0.1}
	// Two failed attempts: 2+0.1 and 2+0.2.
	if got, want := p.SlackBudget(), 4.3; math.Abs(got-want) > 1e-12 {
		t.Errorf("SlackBudget = %v, want %v", got, want)
	}
	if (RetryPolicy{}).SlackBudget() != 0 {
		t.Error("zero policy has zero slack budget")
	}
}

// TestBreakerLifecycle drives the breaker through the full recovery arc:
// closed → trip on failure ratio → cooldown → half-open → probes → closed,
// and separately a half-open probe failure re-opening it.
func TestBreakerLifecycle(t *testing.T) {
	steps := []struct {
		now             float64
		failures, succs int
		wantStateAfter  BreakerState
		wantTripsByStep int
	}{
		{now: 0, failures: 1, succs: 5, wantStateAfter: BreakerClosed, wantTripsByStep: 0},
		// 6 more failures: total 12 samples, 7 failures >= 50% → trip.
		{now: 1, failures: 6, succs: 0, wantStateAfter: BreakerOpen, wantTripsByStep: 1},
		// During cooldown the fallback serves; observations ignored.
		{now: 10, failures: 0, succs: 4, wantStateAfter: BreakerOpen, wantTripsByStep: 1},
		// Cooldown (30s) elapsed → half-open.
		{now: 32, failures: 0, succs: 1, wantStateAfter: BreakerHalfOpen, wantTripsByStep: 1},
		{now: 33, failures: 0, succs: 1, wantStateAfter: BreakerHalfOpen, wantTripsByStep: 1},
		// Third probe success closes it.
		{now: 34, failures: 0, succs: 1, wantStateAfter: BreakerClosed, wantTripsByStep: 1},
		// Recovered: healthy traffic keeps it closed.
		{now: 35, failures: 0, succs: 20, wantStateAfter: BreakerClosed, wantTripsByStep: 1},
	}
	b := NewBreaker(BreakerConfig{MinSamples: 8, FailureThreshold: 0.5, Cooldown: 30, ProbeSuccesses: 3})
	for i, s := range steps {
		b.Observe(s.now, s.failures, s.succs)
		if got := b.State(s.now); got != s.wantStateAfter {
			t.Fatalf("step %d: state = %v, want %v", i, got, s.wantStateAfter)
		}
		if b.Trips() != s.wantTripsByStep {
			t.Fatalf("step %d: trips = %d, want %d", i, b.Trips(), s.wantTripsByStep)
		}
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b := NewBreaker(BreakerConfig{MinSamples: 4, FailureThreshold: 0.5, Cooldown: 10, ProbeSuccesses: 2})
	b.Observe(0, 4, 0) // trip
	if b.State(0) != BreakerOpen || b.Trips() != 1 {
		t.Fatalf("expected first trip, state=%v trips=%d", b.State(0), b.Trips())
	}
	if b.State(11) != BreakerHalfOpen {
		t.Fatalf("expected half-open after cooldown, got %v", b.State(11))
	}
	b.Observe(12, 1, 0) // probe failure
	if b.State(12) != BreakerOpen || b.Trips() != 2 {
		t.Fatalf("probe failure must re-open: state=%v trips=%d", b.State(12), b.Trips())
	}
	// Second recovery attempt succeeds.
	b.Observe(23, 0, 2)
	if b.State(23) != BreakerClosed {
		t.Fatalf("expected closed after probes, got %v", b.State(23))
	}
}

func TestBreakerForgetting(t *testing.T) {
	// A long healthy history must not be pinned open by one bad window,
	// but the halving keeps the window responsive: after many successes a
	// single window with overwhelming failures still trips.
	b := NewBreaker(BreakerConfig{MinSamples: 8, FailureThreshold: 0.5, Cooldown: 30, ProbeSuccesses: 3})
	for i := 0; i < 50; i++ {
		b.Observe(float64(i), 0, 2)
	}
	if b.State(50) != BreakerClosed {
		t.Fatal("healthy traffic must stay closed")
	}
	b.Observe(51, 40, 0)
	if b.State(51) != BreakerOpen {
		t.Fatal("an overwhelming failure window must still trip")
	}
}

func TestPreemptionCrashes(t *testing.T) {
	windows := []hardware.PreemptionWindow{
		{Node: 2, Start: 100, End: 200},
		{Node: 0, Start: 300, End: 0}, // never restarts
	}
	faults := PreemptionCrashes(windows)
	if len(faults) != len(windows) {
		t.Fatalf("got %d faults for %d windows", len(faults), len(windows))
	}
	for i, f := range faults {
		w := windows[i]
		if f.Kind != NodeCrash {
			t.Errorf("fault %d kind = %v, want crash", i, f.Kind)
		}
		if f.Node != w.Node || f.Start != w.Start || f.End != w.End { //lint:allow floateq exact copy
			t.Errorf("fault %d = %+v, want window %+v", i, f, w)
		}
	}
	// The converted schedule enables a plan on its own.
	if !(&Plan{NodeFaults: faults}).Enabled() {
		t.Error("plan with converted preemption crashes must be enabled")
	}
	if len(PreemptionCrashes(nil)) != 0 {
		t.Error("nil windows must convert to no faults")
	}
}
