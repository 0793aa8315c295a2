// Package coldstart implements the paper's adaptive cold-start management
// (§V-B): the per-function pre-warming decision, and the closed-form E2E
// latency and cost expressions (Eq. 3–5) the Strategy Optimizer evaluates
// during path search.
//
// For a function with initialization time T, inference time I, and predicted
// inter-arrival time IT between successive invocations:
//
//   - Case I (T + I < IT, low arrival rate): unload the instance after each
//     invocation and pre-warm it again so initialization finishes exactly
//     when the function's first input arrives. The instance idles unloaded
//     for IT−T−I seconds, exists for T+I seconds per invocation, and its
//     initialization fully overlaps upstream inference, so it contributes
//     only I to E2E latency and (T+I)·U(⋆) to cost (Theorem 5.1: this is
//     cost-minimal).
//
//   - Case II (T + I ≥ IT, high arrival rate): keeping the instance alive
//     dominates terminate-and-restart (IT·U ≤ (T+I)·U), so the pre-warm
//     window is zero, the instance stays warm, contributing I to latency
//     and IT·U(⋆) to cost per invocation.
//
//lint:deterministic
package coldstart

import (
	"fmt"
	"math"

	"smiless/internal/dag"
	"smiless/internal/hardware"
	"smiless/internal/perfmodel"
)

// Policy is the cold-start management choice for one function: the paper's
// △_k ∈ S.
type Policy int

const (
	// Prewarm is Case I: unload after each invocation; re-initialize with
	// lead time T so init overlaps upstream inference.
	Prewarm Policy = iota
	// KeepAlive is Case II: the instance stays resident between
	// invocations (pre-warm window zero).
	KeepAlive
	// NoMitigation pays a full cold start on the request path. No SMIless
	// mode uses it; it models unmanaged baselines.
	NoMitigation
	// AlwaysOn never unloads regardless of IT, billing wall-clock time
	// continuously; it models LLama-style provisioning and is used by the
	// GrandSLAm baseline.
	AlwaysOn
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Prewarm:
		return "prewarm"
	case KeepAlive:
		return "keep-alive"
	case NoMitigation:
		return "no-mitigation"
	case AlwaysOn:
		return "always-on"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Decision is the adaptive cold-start outcome for one function.
type Decision struct {
	Policy Policy
	// Window is the pre-warm window: how long the instance stays unloaded
	// between invocations (IT−T−I under Case I, 0 under Case II).
	Window float64
	// Lead is how long before the function's input is expected the
	// initialization must begin (T under Case I, 0 otherwise).
	Lead float64
}

// Decide applies the paper's case split for one function given its init
// time t, inference time i, and the predicted inter-arrival time it.
func Decide(t, i, it float64) Decision {
	if t < 0 || i < 0 {
		panic(fmt.Sprintf("coldstart: negative timing t=%v i=%v", t, i))
	}
	if it > 0 && t+i < it {
		return Decision{Policy: Prewarm, Window: it - t - i, Lead: t}
	}
	return Decision{Policy: KeepAlive, Window: 0, Lead: 0}
}

// CostPerInvocation returns C_k(⋆,△) = E_k·U(⋆) (Eq. 3) for one function
// under the given decision: the billed instance-seconds per invocation times
// the unit cost.
func CostPerInvocation(d Decision, t, i, it, unit float64) float64 {
	switch d.Policy {
	case Prewarm:
		return (t + i) * unit
	case KeepAlive:
		// The instance is billed from one invocation to the next.
		if it <= 0 || it < i {
			// Back-to-back arrivals: billed for the busy time.
			return i * unit
		}
		return it * unit
	case NoMitigation:
		return (t + i) * unit
	case AlwaysOn:
		if it <= 0 || it < i {
			return i * unit
		}
		return it * unit
	default:
		panic(fmt.Sprintf("coldstart: unknown policy %v", d.Policy))
	}
}

// Plan is the joint configuration of one application: hardware choice ⋆_k
// and cold-start decision △_k for every function. It is one node of the
// Strategy Optimizer's multi-way tree.
type Plan struct {
	Configs   map[dag.NodeID]hardware.Config
	Decisions map[dag.NodeID]Decision
}

// NewPlan allocates an empty plan.
func NewPlan() *Plan {
	return &Plan{
		Configs:   make(map[dag.NodeID]hardware.Config),
		Decisions: make(map[dag.NodeID]Decision),
	}
}

// Clone deep-copies the plan.
func (p *Plan) Clone() *Plan {
	out := NewPlan()
	for k, v := range p.Configs {
		out.Configs[k] = v
	}
	for k, v := range p.Decisions {
		out.Decisions[k] = v
	}
	return out
}

// Evaluation summarizes a plan's predicted behaviour.
type Evaluation struct {
	// E2ELatency is L(χ,φ): the longest-path sum of inference times plus
	// any unhidden initialization (seconds).
	E2ELatency float64
	// CostPerInvocation is Σ_k C_k(⋆_k,△_k) (dollars per invocation).
	CostPerInvocation float64
	// PerFunction breaks the cost down by node.
	PerFunction map[dag.NodeID]float64
}

// Clone deep-copies the Evaluation so memoizing callers (core.EvalCache)
// can hand out copies whose PerFunction map is safe to mutate.
func (e Evaluation) Clone() Evaluation {
	out := e
	out.PerFunction = make(map[dag.NodeID]float64, len(e.PerFunction))
	for k, v := range e.PerFunction {
		out.PerFunction[k] = v
	}
	return out
}

// Evaluate computes the closed-form E2E latency and per-invocation cost of a
// plan over an application DAG, given fitted profiles, the predicted
// inter-arrival time, and the batch size (1 unless the Auto-scaler batches).
//
// Latency: with adaptive pre-warming, every function contributes only its
// inference time on the critical path (Eq. 5); a function with NoMitigation
// also contributes its initialization time. The E2E latency is the maximum
// over source-to-sink paths of the path sums.
//
// Cost: the per-function costs (Eq. 3) summed over all functions.
// On any error the zero Evaluation is returned: an earlier revision
// returned the partially-summed value alongside the error, and a caller
// that consulted the Evaluation without checking the error consumed a
// half-summed cost as if it were complete.
func Evaluate(g *dag.Graph, profiles map[dag.NodeID]*perfmodel.Profile, plan *Plan, pricing hardware.Pricing, it float64, batch int) (Evaluation, error) {
	return EvaluateInto(nil, g, profiles, plan, pricing, it, batch)
}

// EvaluateInto is Evaluate with the PerFunction breakdown written into per,
// which it clears first; a nil per is allocated. A caller that keeps per
// across calls evaluates without allocating. On error per holds a partial
// breakdown and the zero Evaluation is returned.
func EvaluateInto(per map[dag.NodeID]float64, g *dag.Graph, profiles map[dag.NodeID]*perfmodel.Profile, plan *Plan, pricing hardware.Pricing, it float64, batch int) (Evaluation, error) {
	l := g.Layout()
	n := len(l.Topo)
	// contrib and finish are indexed like the layout; small graphs keep them
	// on the stack, so the PerFunction map is the only allocation.
	var stack [64]float64
	scratch := stack[:]
	if 2*n > len(stack) {
		scratch = make([]float64, 2*n)
	}
	contrib, finish := scratch[:n], scratch[n:2*n]
	if per == nil {
		per = make(map[dag.NodeID]float64, n)
	} else {
		clear(per)
	}
	ev := Evaluation{PerFunction: per}
	// Per-node path latency contribution and cost, summed in insertion order.
	for _, id := range l.Nodes {
		prof, ok := profiles[id]
		if !ok {
			return Evaluation{}, fmt.Errorf("coldstart: no profile for %q", id)
		}
		cfg, ok := plan.Configs[id]
		if !ok || cfg.IsZero() {
			return Evaluation{}, fmt.Errorf("coldstart: no config for %q", id)
		}
		d, ok := plan.Decisions[id]
		if !ok {
			return Evaluation{}, fmt.Errorf("coldstart: no decision for %q", id)
		}
		t := prof.InitTime(cfg)
		i := prof.InferenceTime(cfg, batch)
		c := CostPerInvocation(d, t, i, it, pricing.UnitCost(cfg))
		ev.PerFunction[id] = c
		ev.CostPerInvocation += c
		if d.Policy == NoMitigation {
			i += t
		}
		contrib[l.Index[id]] = i
	}
	// Longest weighted path via topological order.
	for i := range l.Topo {
		start := 0.0
		for _, p := range l.Preds[i] {
			if finish[p] > start {
				start = finish[p]
			}
		}
		finish[i] = start + contrib[i]
		if finish[i] > ev.E2ELatency {
			ev.E2ELatency = finish[i]
		}
	}
	return ev, nil
}

// ApplyAdaptive fills plan.Decisions for every node using Decide with each
// node's profiled timings under its configured hardware: the paper's
// "adaptive pre-warming" policy vector.
func ApplyAdaptive(g *dag.Graph, profiles map[dag.NodeID]*perfmodel.Profile, plan *Plan, it float64, batch int) error {
	for _, id := range g.Nodes() {
		prof, ok := profiles[id]
		if !ok {
			return fmt.Errorf("coldstart: no profile for %q", id)
		}
		cfg, ok := plan.Configs[id]
		if !ok || cfg.IsZero() {
			return fmt.Errorf("coldstart: no config for %q", id)
		}
		plan.Decisions[id] = Decide(prof.InitTime(cfg), prof.InferenceTime(cfg, batch), it)
	}
	return nil
}

// PrewarmStart returns the absolute time initialization of a function must
// begin so it finishes exactly when the function's input arrives:
// needAt − lead, floored at now. The Container Manager schedules its timers
// with this.
func PrewarmStart(now, needAt, lead float64) float64 {
	s := needAt - lead
	if s < now {
		return now
	}
	return s
}

// TheoremCaseI verifies the premise of Theorem 5.1 for a two-function
// pipeline: when I1+I2 < SLA and T2+I2 < IT, adaptive pre-warming yields the
// minimum cost among {Prewarm, KeepAlive, NoMitigation} for F2. Exposed for
// tests and the Fig. 3 experiment.
func TheoremCaseI(t2, i2, it, unit float64) (best Policy, costs map[Policy]float64) {
	costs = map[Policy]float64{
		Prewarm:      CostPerInvocation(Decision{Policy: Prewarm}, t2, i2, it, unit),
		KeepAlive:    CostPerInvocation(Decision{Policy: KeepAlive}, t2, i2, it, unit),
		NoMitigation: CostPerInvocation(Decision{Policy: NoMitigation}, t2, i2, it, unit),
	}
	best = Prewarm
	min := math.Inf(1)
	for _, p := range []Policy{Prewarm, KeepAlive, NoMitigation} {
		if costs[p] < min {
			min = costs[p]
			best = p
		}
	}
	return best, costs
}

// RetryAdjustedSLA shrinks a planning SLA to reserve headroom for the
// gateway's retry backoffs: when failures are injected, a request may spend
// part of its budget waiting out backoff delays, so the optimizer plans
// against sla − budget. floorFrac bounds the shrink (the plan must still
// target a meaningful latency), so the result never drops below
// floorFrac·sla.
func RetryAdjustedSLA(sla, budget, floorFrac float64) float64 {
	if budget <= 0 {
		return sla
	}
	adjusted := sla - budget
	floor := sla * floorFrac
	if adjusted < floor {
		return floor
	}
	return adjusted
}
