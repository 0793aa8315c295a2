// Resilience layer of the SMIless controller: gateway retry/hedging
// directives, per-function circuit breakers that fall back to a known-good
// CPU flavor, and graceful degradation to a conservative keep-alive plan
// when the optimizer fails. All of it is gated on sim.FaultsEnabled() so
// fault-free runs are bit-compatible with the pre-resilience controller.
package controller

import (
	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/faults"
	"smiless/internal/hardware"
	"smiless/internal/simulator"
)

// enableResilience initializes the breaker/fallback machinery for a
// fault-injected run.
func (s *SMIless) enableResilience(sim simulator.ControlPlane) {
	s.resilient = true
	s.breakers = make(map[dag.NodeID]*faults.Breaker)
	s.fallback = make(map[dag.NodeID]bool)
	s.lastInitF = make(map[dag.NodeID]int)
	s.lastExecF = make(map[dag.NodeID]int)
	s.lastSucc = make(map[dag.NodeID]int)
	s.fallbackCfg = fallbackConfig(s.Catalog)
	for _, id := range functions(sim) {
		s.breakers[id] = faults.NewBreaker(faults.BreakerConfig{})
	}
}

// fallbackConfig picks the known-good flavor the breaker falls back to: a
// mid-size CPU configuration (4 cores when the catalog has it). CPU
// instances initialize fastest and have no co-location contention, which is
// what matters while a function's planned flavor is misbehaving.
func fallbackConfig(cat *hardware.Catalog) hardware.Config {
	var firstCPU hardware.Config
	haveCPU := false
	for _, c := range cat.Configs {
		if c.Kind != hardware.CPU {
			continue
		}
		if c.Cores == 4 {
			return c
		}
		if !haveCPU {
			firstCPU, haveCPU = c, true
		}
	}
	if haveCPU {
		return firstCPU
	}
	return cat.Configs[0]
}

// nominalRetryPolicy is the retry shape shared by every function; only the
// per-attempt timeout is function-specific (see retryPolicyFor).
func (s *SMIless) nominalRetryPolicy() faults.RetryPolicy {
	return faults.RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: 0.05,
		MaxBackoff:  1,
		JitterFrac:  0.2,
	}
}

// retryPolicyFor returns the gateway retry policy for one function: the
// nominal backoff ladder plus a per-attempt timeout generous enough that
// ordinary batching/contention inflation never trips it (6x the planned
// inference time, floored at the SLA).
func (s *SMIless) retryPolicyFor(id dag.NodeID) faults.RetryPolicy {
	pol := s.nominalRetryPolicy()
	timeout := 6 * s.planInfer[id]
	if timeout < s.SLA {
		timeout = s.SLA
	}
	pol.Timeout = timeout
	return pol
}

// hedgeDelayFor places the hedging threshold for one function: past the
// observed tail (1.3x the p95 of recent executions) and well past the
// planned inference time, a duplicate on a second warm instance is worth
// the spend. Straggler injection inflates individual executions by several
// x, so the hedge wins exactly when injection struck the primary.
func (s *SMIless) hedgeDelayFor(sim simulator.ControlPlane, id dag.NodeID) float64 {
	d := 1.5 * s.planInfer[id]
	if q := sim.ExecLatencyQuantile(id, 95); q > 0 {
		if h := 1.3 * q; h > d {
			d = h
		}
	}
	return d
}

// updateBreakers feeds each function's window delta of failures/successes
// into its breaker, re-installing the plan when any breaker changed the
// routing (open <-> not-open), and mirrors total trips into RunStats.
func (s *SMIless) updateBreakers(sim simulator.ControlPlane, now float64) {
	changed := false
	trips := 0
	for _, id := range functions(sim) {
		br := s.breakers[id]
		initF, execF, succ := sim.FnResilience(id)
		fails := (initF - s.lastInitF[id]) + (execF - s.lastExecF[id])
		succs := succ - s.lastSucc[id]
		s.lastInitF[id], s.lastExecF[id], s.lastSucc[id] = initF, execF, succ
		br.Observe(now, fails, succs)
		open := br.State(now) == faults.BreakerOpen
		if open != s.fallback[id] {
			s.fallback[id] = open
			changed = true
		}
		trips += br.Trips()
	}
	sim.Stats().BreakerTrips = trips
	if changed && s.plan != nil {
		s.installPlan(sim, s.itMean)
	}
}

// degrade installs the conservative fallback plan used when the Strategy
// Optimizer fails with nothing to serve from: every function on the
// known-good CPU flavor with keep-alive — the safe default that trades
// cost for availability until the optimizer recovers.
func (s *SMIless) degrade(sim simulator.ControlPlane, it float64) {
	if !s.resilient {
		// Degradation can be needed even on fault-free runs (an optimizer
		// bug must not take the service down), so the fallback flavor may
		// not be picked yet.
		s.fallbackCfg = fallbackConfig(s.Catalog)
	}
	plan := coldstart.NewPlan()
	for _, id := range functions(sim) {
		plan.Configs[id] = s.fallbackCfg
		plan.Decisions[id] = coldstart.Decision{Policy: coldstart.KeepAlive}
	}
	s.plan = plan
	s.planIT = it
	s.planITMean = s.itMean
	s.computePlanGeometry(sim)
	s.installPlan(sim, it)
	if !s.degraded {
		s.degraded = true
		s.degradedSince = 0
	}
}
