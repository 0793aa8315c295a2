// Package autoscaler implements the paper's Auto-scaler (§V-D): when the
// predicted number of invocations G in the next window cannot be served
// sequentially within the required inference time Iₛ, it batches B
// invocations per instance and launches ⌈G/B⌉ instances, choosing the
// configuration ⋆ and batch size B that minimize
//
//	(G/B) · IT · U(⋆)   subject to   I(B, ⋆) ≤ Iₛ      (Eq. 7/8)
//
// The constraint is the fitted latency law of Eq. (1) (CPU) or Eq. (2)
// (GPU). Because I(B, ⋆) is strictly increasing in B, the largest feasible
// batch per configuration is found by bisection (the paper's method); the
// outer minimization scans the configuration catalog.
//
//lint:deterministic
package autoscaler

import (
	"errors"
	"fmt"
	"math"

	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/perfmodel"
)

// DefaultMaxBatch caps the batch size; the paper profiles batch sizes up to
// 2^5 (§VII-C1), beyond which the latency models are extrapolating.
const DefaultMaxBatch = 32

// Plan is the Auto-scaler's decision for one function over one window.
type Plan struct {
	// Config is the per-instance hardware configuration.
	Config hardware.Config
	// Batch is the number of invocations batched per instance.
	Batch int
	// Instances is the number of parallel instances, ⌈G/B⌉.
	Instances int
	// Latency is the modelled per-batch inference time I(B, ⋆).
	Latency float64
	// CostRate is Instances·IT·U(⋆): the billed dollars attributable to
	// this window.
	CostRate float64
}

// ErrInfeasible is the error Decide and DecideReactive return when no
// configuration meets the latency budget even at batch size 1. It is a
// sentinel, not a formatted error: a burst window asks this of every function
// whose budget is out of reach, and the caller only tests for it.
var ErrInfeasible = errors.New("autoscaler: no configuration meets the latency budget")

// Scaler solves the Eq. (7)/(8) problems over a hardware catalog.
type Scaler struct {
	Catalog *hardware.Catalog
	// MaxBatch bounds the batch size (DefaultMaxBatch when zero).
	MaxBatch int
	// memo caches solver outcomes on exact argument bits (see memo.go); nil
	// (zero-value Scaler) solves every call.
	memo *memo
}

// New returns a Scaler over the catalog with an attached decision memo.
func New(cat *hardware.Catalog) *Scaler {
	return &Scaler{Catalog: cat, MaxBatch: DefaultMaxBatch, memo: newMemo()}
}

// Decide chooses the cost-minimal (config, batch) pair that serves g
// invocations with per-batch latency at most is, given it as the window
// length used for billing. It returns an error when no configuration can
// meet is even at batch size 1 (ErrInfeasible) — the caller should then fall
// back to the fastest configuration via Fallback.
func (s *Scaler) Decide(prof *perfmodel.Profile, g int, it, is float64) (Plan, error) {
	key := decideKey{prof: prof, g: g, it: it, bound: is, maxBatch: s.MaxBatch}
	if e, ok := s.memo.lookup(key); ok {
		return e.plan, e.err
	}
	p, err := s.decide(prof, g, it, is)
	s.memo.store(key, decideEntry{plan: p, err: err})
	return p, err
}

// decide is the uncached Eq. (7)/(8) solve behind Decide.
func (s *Scaler) decide(prof *perfmodel.Profile, g int, it, is float64) (Plan, error) {
	if g <= 0 {
		return Plan{}, fmt.Errorf("autoscaler: non-positive invocation count %d", g)
	}
	if is <= 0 {
		return Plan{}, fmt.Errorf("autoscaler: non-positive latency budget %v", is)
	}
	maxB := s.MaxBatch
	if maxB <= 0 {
		maxB = DefaultMaxBatch
	}
	if maxB > g {
		maxB = g
	}
	best := Plan{}
	found := false
	for _, cfg := range s.Catalog.Configs {
		// Largest batch whose modelled latency fits the budget; the
		// latency law is monotone in B, so integer bisection applies.
		b := mathx.MaxIntWhere(1, maxB, func(b int) bool {
			return prof.InferenceTime(cfg, b) <= is
		})
		if b < 1 {
			continue // this config misses the budget even unbatched
		}
		inst := (g + b - 1) / b
		cost := float64(inst) * it * s.Catalog.UnitCost(cfg)
		cand := Plan{
			Config:    cfg,
			Batch:     b,
			Instances: inst,
			Latency:   prof.InferenceTime(cfg, b),
			CostRate:  cost,
		}
		if !found || cand.CostRate < best.CostRate-1e-15 ||
			(math.Abs(cand.CostRate-best.CostRate) <= 1e-15 && cand.Instances < best.Instances) {
			best = cand
			found = true
		}
	}
	if !found {
		return Plan{}, ErrInfeasible
	}
	return best, nil
}

// Fallback returns the plan minimizing time-to-first-result from cold —
// InitTime + InferenceTime at batch 1, one instance per invocation — used
// when Decide finds the budget unreachable: scale out instead of up (§V-B2).
// The fallback fires exactly when fresh instances must be launched, so a
// flavor's cold start counts in full; ranking by warm inference alone used
// to pick GPU shares whose initialization dwarfs the burst (contradicting
// DecideReactive, which is why bursts lean CPU). Plan.Latency remains the
// warm per-batch inference time of the chosen configuration.
func (s *Scaler) Fallback(prof *perfmodel.Profile, g int, it float64) Plan {
	key := decideKey{prof: prof, g: g, it: it, bound: -1, maxBatch: s.MaxBatch}
	if e, ok := s.memo.lookup(key); ok {
		return e.plan
	}
	p := s.fallback(prof, g, it)
	s.memo.store(key, decideEntry{plan: p})
	return p
}

// fallback is the uncached scan behind Fallback.
func (s *Scaler) fallback(prof *perfmodel.Profile, g int, it float64) Plan {
	best := Plan{}
	bestCold := 0.0
	for i, cfg := range s.Catalog.Configs {
		lat := prof.InferenceTime(cfg, 1)
		cold := prof.InitTime(cfg) + lat
		if i == 0 || cold < bestCold {
			best = Plan{Config: cfg, Batch: 1, Instances: g, Latency: lat}
			bestCold = cold
		}
	}
	best.CostRate = float64(best.Instances) * it * s.Catalog.UnitCost(best.Config)
	return best
}

// DecideOrFallback runs Decide and falls back to scale-out when the budget
// is unreachable; the boolean reports whether the budget was met.
func (s *Scaler) DecideOrFallback(prof *perfmodel.Profile, g int, it, is float64) (Plan, bool) {
	p, err := s.Decide(prof, g, it, is)
	if err != nil {
		return s.Fallback(prof, g, it), false
	}
	return p, true
}

// DecideReactive is Decide for the case where instances must be launched
// cold right now (a backlog already exists): the constraint becomes
// T_init(⋆) + I(B, ⋆) ≤ budget, so configurations with long initialization
// (typically GPUs, §IV-A1) are ruled out unless their speed compensates.
// This is why scale-out under sudden bursts leans on CPUs (Fig. 14b).
func (s *Scaler) DecideReactive(prof *perfmodel.Profile, g int, it, budget float64) (Plan, error) {
	key := decideKey{prof: prof, g: g, it: it, bound: budget, maxBatch: s.MaxBatch, reactive: true}
	if e, ok := s.memo.lookup(key); ok {
		return e.plan, e.err
	}
	p, err := s.decideReactive(prof, g, it, budget)
	s.memo.store(key, decideEntry{plan: p, err: err})
	return p, err
}

// decideReactive is the uncached solve behind DecideReactive.
func (s *Scaler) decideReactive(prof *perfmodel.Profile, g int, it, budget float64) (Plan, error) {
	if g <= 0 {
		return Plan{}, fmt.Errorf("autoscaler: non-positive invocation count %d", g)
	}
	if budget <= 0 {
		return Plan{}, fmt.Errorf("autoscaler: non-positive budget %v", budget)
	}
	maxB := s.MaxBatch
	if maxB <= 0 {
		maxB = DefaultMaxBatch
	}
	if maxB > g {
		maxB = g
	}
	best := Plan{}
	found := false
	for _, cfg := range s.Catalog.Configs {
		init := prof.InitTime(cfg)
		if init >= budget {
			continue
		}
		b := mathx.MaxIntWhere(1, maxB, func(b int) bool {
			return init+prof.InferenceTime(cfg, b) <= budget
		})
		if b < 1 {
			continue
		}
		inst := (g + b - 1) / b
		cand := Plan{
			Config: cfg, Batch: b, Instances: inst,
			Latency:  prof.InferenceTime(cfg, b),
			CostRate: float64(inst) * it * s.Catalog.UnitCost(cfg),
		}
		if !found || cand.CostRate < best.CostRate-1e-15 ||
			(math.Abs(cand.CostRate-best.CostRate) <= 1e-15 && cand.Instances < best.Instances) {
			best = cand
			found = true
		}
	}
	if !found {
		return Plan{}, ErrInfeasible
	}
	return best, nil
}
