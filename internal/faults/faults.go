// Package faults defines the failure-injection and recovery primitives the
// simulator and controller share: a seeded injection Plan (container
// crashes, stragglers, scheduled node crashes and partitions), the Injector
// that realizes it, and the gateway-side recovery state machines
// (RetryPolicy, Breaker).
//
// The paper's analysis (§V, Eq. 3–5) assumes containers never fail; this
// package is the robustness extension. Injection is driven by an RNG that
// is independent of the simulator's ground-truth timing stream, so a plan
// with all probabilities zero (or a nil plan) leaves a run bit-identical
// to the fault-free build, and two runs with the same plan seed replay the
// same failure schedule.
//
// Spot preemptions (hardware.PriceTrace.Preemptions) are a second,
// price-driven source of node loss: the substrates realize them natively
// with instant detection — the provider sends an eviction notice, so
// containers are evicted and their work failed over without the gossip
// detector, and no retry attempts are billed. To model a harsher provider that evicts without
// notice, PreemptionCrashes converts the same windows into NodeFaults so
// the loss must be discovered through missing heartbeats.
//
//lint:deterministic
package faults

import (
	"math/rand"

	"smiless/internal/hardware"
)

// Rates are per-attempt failure probabilities for one function (or the
// plan-wide default).
type Rates struct {
	// InitFail is the probability a container crashes mid-initialization.
	// The partial init is still billed (Eq. 3 does not forgive failures).
	InitFail float64
	// ExecFail is the probability a batch execution crashes. Members are
	// individually retried or failed by the gateway's RetryPolicy.
	ExecFail float64
	// Straggler is the probability an execution lands in the heavy-tail
	// slow mode (the exec-time analog of apps.ContentionProb).
	Straggler float64
	// StragglerFactor is the slow-mode latency multiplier (default 4).
	StragglerFactor float64
}

// active reports whether any probability is set.
func (r Rates) active() bool {
	return r.InitFail > 0 || r.ExecFail > 0 || r.Straggler > 0
}

// NodeFaultKind classifies a scheduled node-level fault.
type NodeFaultKind int

const (
	// NodeCrash kills the node's process at Start: containers on it die
	// silently (their in-flight completions are lost) and the control
	// plane only learns of the loss when the gossip failure detector marks
	// the node down, at which point in-flight work fails over to live
	// peers. End > Start restarts the node — empty, rejoining at the next
	// heartbeat; End <= Start leaves it down for the rest of the run.
	NodeCrash NodeFaultKind = iota
	// NodePartition makes the node unreachable over [Start, End): its
	// containers keep executing but their completions are held and only
	// delivered when the partition heals, so a failed-over twin may race
	// the original — exercising the idempotent first-completion-wins
	// dedup. End must be greater than Start.
	NodePartition
)

// String names the kind for reports and traces.
func (k NodeFaultKind) String() string {
	switch k {
	case NodeCrash:
		return "crash"
	case NodePartition:
		return "partition"
	}
	return "unknown"
}

// NodeFault schedules one crash/restart cycle or network partition for a
// node. The control plane does not observe the fault directly: the gossip
// failure detector must notice missing heartbeats and drive suspect → down
// → failover.
type NodeFault struct {
	Node int
	Kind NodeFaultKind
	// Start is when the fault begins (crash instant / partition onset).
	Start float64
	// End is the restart time for NodeCrash (<= Start means the node never
	// returns) or the heal time for NodePartition (must be > Start).
	End float64
}

// PreemptionCrashes converts spot-preemption windows into NodeCrash
// faults: the node dies at the window start and restarts when it closes
// (a window that never closes leaves it down). Unlike the substrates'
// native PriceTrace handling — instant detection on the eviction notice —
// the resulting faults must be discovered by the gossip health detector,
// modelling a provider that reclaims capacity without an eviction notice.
func PreemptionCrashes(windows []hardware.PreemptionWindow) []NodeFault {
	out := make([]NodeFault, 0, len(windows))
	for _, w := range windows {
		out = append(out, NodeFault{Node: w.Node, Kind: NodeCrash, Start: w.Start, End: w.End})
	}
	return out
}

// Plan is a deterministic, seeded failure-injection schedule for one run.
// The zero value (and a nil plan) injects nothing.
type Plan struct {
	// Default applies to every function without a PerFunction override.
	Default Rates
	// PerFunction overrides Default for named functions.
	PerFunction map[string]Rates
	// NodeFaults schedules crashes, restarts and partitions that the
	// control plane must discover through its health detector.
	NodeFaults []NodeFault
	// Seed drives the injection RNG, independent of the simulation seed.
	Seed int64
}

// Enabled reports whether the plan injects any fault at all.
func (p *Plan) Enabled() bool {
	if p == nil {
		return false
	}
	if p.Default.active() || len(p.NodeFaults) > 0 {
		return true
	}
	for _, r := range p.PerFunction {
		if r.active() {
			return true
		}
	}
	return false
}

// RatesFor resolves the rates for one function.
func (p *Plan) RatesFor(fn string) Rates {
	if p == nil {
		return Rates{}
	}
	if r, ok := p.PerFunction[fn]; ok {
		return r
	}
	return p.Default
}

// Injector realizes a Plan: each outcome draws from the plan-seeded RNG in
// event order, which the simulator's deterministic event heap makes
// reproducible run to run.
type Injector struct {
	plan *Plan
	rng  *rand.Rand
}

// NewInjector builds the injector for a plan, or nil when the plan injects
// nothing (callers must not store a typed nil into an interface).
func NewInjector(p *Plan) *Injector {
	if !p.Enabled() {
		return nil
	}
	return &Injector{plan: p, rng: rand.New(rand.NewSource(p.Seed ^ 0x5eedfa17))}
}

// crashFrac draws the crash point as a fraction of the attempt's duration,
// bounded away from 0 and 1 so a crashed attempt always burns billed time
// but never masquerades as a completion.
func (in *Injector) crashFrac() float64 {
	return 0.05 + 0.9*in.rng.Float64()
}

// InitOutcome decides whether one container initialization crashes, and if
// so at which fraction of its sampled duration.
func (in *Injector) InitOutcome(fn string) (fail bool, frac float64) {
	r := in.plan.RatesFor(fn)
	if r.InitFail > 0 && in.rng.Float64() < r.InitFail {
		return true, in.crashFrac()
	}
	return false, 0
}

// ExecOutcome decides whether one batch execution crashes, and if so at
// which fraction of its sampled duration.
func (in *Injector) ExecOutcome(fn string) (fail bool, frac float64) {
	r := in.plan.RatesFor(fn)
	if r.ExecFail > 0 && in.rng.Float64() < r.ExecFail {
		return true, in.crashFrac()
	}
	return false, 0
}

// StragglerFactor returns the latency multiplier for one execution: 1 in
// the common case, the slow-mode factor when the straggler draw hits.
func (in *Injector) StragglerFactor(fn string) float64 {
	r := in.plan.RatesFor(fn)
	if r.Straggler <= 0 || in.rng.Float64() >= r.Straggler {
		return 1
	}
	if r.StragglerFactor > 1 {
		return r.StragglerFactor
	}
	return 4
}

// Jitter returns a uniform [0,1) draw for backoff jitter, keeping retry
// scheduling on the injection stream rather than the timing stream.
func (in *Injector) Jitter() float64 {
	return in.rng.Float64()
}
