package baselines

import (
	"fmt"
	"math"

	"smiless/internal/autoscaler"
	"smiless/internal/coldstart"
	"smiless/internal/core"
	"smiless/internal/dag"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/perfmodel"
	"smiless/internal/simulator"
)

// OPT is the oracle the paper obtains "through exhaustive search": it knows
// the true arrival times and the exact profiles. Its static plan is the
// exact optimum (core.Optimizer.OptimizeExact) of the model SMIless plans
// with: the same candidate tables, solved without the path search's
// approximations. Pre-warming is scheduled at the true arrival times, so
// initialization never lands on the critical path.
type OPT struct {
	Catalog  *hardware.Catalog
	Profiles map[dag.NodeID]*perfmodel.Profile
	SLA      float64
	// Arrivals are the oracle-known request times.
	Arrivals []float64

	plan   *coldstart.Plan
	scaled bool
	// winCounts caches per-window arrival counts for the oracle lookahead.
	winCounts []int
}

// NewOPT builds the oracle driver.
func NewOPT(cat *hardware.Catalog, profiles map[dag.NodeID]*perfmodel.Profile, sla float64, arrivals []float64) *OPT {
	return &OPT{Catalog: cat, Profiles: profiles, SLA: sla, Arrivals: arrivals}
}

// Name implements simulator.Driver.
func (o *OPT) Name() string { return "OPT" }

// trueIT returns the oracle's planning inter-arrival time: the 25th
// percentile of window-level event gaps rather than the global mean, so the
// static plan stays safe through the densest sustained regime of the trace
// (the mean would let dense phases saturate the plan's instances).
func (o *OPT) trueIT() float64 {
	if len(o.Arrivals) < 2 {
		return math.Inf(1)
	}
	var events []float64
	lastWin := -1
	for _, a := range o.Arrivals {
		w := int(a)
		if w != lastWin {
			events = append(events, a)
			lastWin = w
		}
	}
	if len(events) < 3 {
		return (o.Arrivals[len(o.Arrivals)-1] - o.Arrivals[0]) / float64(len(o.Arrivals)-1)
	}
	gaps := make([]float64, 0, len(events)-1)
	for i := 1; i < len(events); i++ {
		gaps = append(gaps, events[i]-events[i-1])
	}
	return mathx.Percentile(gaps, 25)
}

// policyIT returns the conservative inter-arrival time driving the
// Case I/II split: the 10th percentile of the true gap distribution, so a
// function only earns terminate-and-pre-warm when even an early-side gap
// leaves room to re-initialize.
func (o *OPT) policyIT() float64 {
	if len(o.Arrivals) < 3 {
		return o.trueIT()
	}
	return mathx.Percentile(o.gaps(), 10)
}

// gaps returns the true inter-arrival gaps.
func (o *OPT) gaps() []float64 {
	gaps := make([]float64, 0, len(o.Arrivals))
	for i := 1; i < len(o.Arrivals); i++ {
		gaps = append(gaps, o.Arrivals[i]-o.Arrivals[i-1])
	}
	return gaps
}

// PlanMargin shrinks the SLA the oracle plans against, covering realized
// latency noise (the same headroom the SMIless controller uses, so the
// comparison stays fair).
const PlanMargin = 0.85

// Plan computes the oracle's static plan for the graph: the exact optimum
// against the SLA shrunk by PlanMargin, billed and queued at the true
// inter-arrival time, with the Case I/II split taken at the conservative
// policyIT. It returns the plan with its analytic per-invocation cost, or,
// when no plan meets the SLA, the best-effort fastest plan, +Inf and false.
func (o *OPT) Plan(g *dag.Graph) (*coldstart.Plan, float64, bool) {
	it := o.trueIT()
	// A throwaway Optimizer: the plan it returns stays valid because
	// nothing calls it again.
	res, err := core.New(o.Catalog).OptimizeExact(core.Request{Graph: g, Profiles: o.Profiles,
		SLA: o.SLA * PlanMargin, IT: math.Min(it, o.policyIT()), ITMean: it, Batch: 1})
	if err != nil {
		// The simulator validated the graph and the profiles cover it.
		panic(fmt.Sprintf("baselines: OPT plan: %v", err))
	}
	if !res.Feasible {
		return res.Plan, math.Inf(1), false
	}
	return res.Plan, res.Eval.CostPerInvocation, true
}

// Setup implements simulator.Driver: install the plan and schedule perfect
// pre-warms at the true arrival times.
func (o *OPT) Setup(sim simulator.ControlPlane) {
	g := sim.App().Graph
	o.plan, _, _ = o.Plan(g)
	o.installPlan(sim)
	offsets := pathOffsets(g, o.Profiles, o.plan.Configs, 1)
	// Oracle pre-warming at the true arrival times; redundant pre-warms
	// no-op when an instance is already live.
	for _, at := range o.Arrivals {
		for _, id := range g.Nodes() {
			sim.SchedulePrewarm(id, at+offsets[id])
		}
	}
}

// OnWindow implements simulator.Driver: the oracle looks five windows ahead
// at the true arrivals; before a burst lands it installs the Eq. 7/8 scaling
// plan and launches the required instances so they are warm in time.
func (o *OPT) OnWindow(sim simulator.ControlPlane, now float64) {
	w := sim.Window()
	if o.winCounts == nil {
		n := 1
		if len(o.Arrivals) > 0 {
			n = int(o.Arrivals[len(o.Arrivals)-1]/w) + 2
		}
		o.winCounts = make([]int, n)
		for _, at := range o.Arrivals {
			o.winCounts[int(at/w)]++
		}
	}
	// Peak one-window arrival count over a short lookahead: spares are
	// launched with init-aware flavors, so a CPU-scale lead time suffices
	// and fleets do not idle for a long pre-warm horizon.
	horizon := 5 * w
	g := 0
	from := int(now / w)
	to := int((now + horizon) / w)
	for wi := from; wi <= to && wi < len(o.winCounts); wi++ {
		if wi >= 0 && o.winCounts[wi] > g {
			g = o.winCounts[wi]
		}
	}
	if g < 4 {
		if o.scaled {
			o.scaled = false
			o.installPlan(sim)
		}
		return
	}
	o.scaled = true
	scaler := autoscaler.New(o.Catalog)
	for _, id := range sim.App().Graph.Nodes() {
		prof := o.Profiles[id]
		cfg := o.plan.Configs[id]
		is := prof.InferenceTime(cfg, 1)
		plan, err := scaler.DecideReactive(prof, g, w, is+prof.InitTime(cfg))
		if err != nil {
			plan, _ = scaler.DecideOrFallback(prof, g, w, is)
		}
		d := sim.GetDirective(id)
		d.Config = plan.Config
		d.Batch = plan.Batch
		d.Instances = plan.Instances
		if d.Instances < 2 {
			d.Instances = 2
		}
		d.Policy = coldstart.KeepAlive
		sim.SetDirective(id, d)
		sim.EnsureInstances(id, plan.Instances)
	}
}

// keepAliveHorizon derives the oracle's keep-alive from the true gap
// distribution: long enough that almost no warm instance expires between
// consecutive requests.
func (o *OPT) keepAliveHorizon() float64 {
	if len(o.Arrivals) < 3 {
		return PlatformKeepAlive
	}
	return min(max(mathx.Percentile(o.gaps(), 99)*1.2, 2), 240)
}

// installPlan restores the static oracle directives.
func (o *OPT) installPlan(sim simulator.ControlPlane) {
	g := sim.App().Graph
	it := o.trueIT()
	offsets := pathOffsets(g, o.Profiles, o.plan.Configs, 1)
	ka := o.keepAliveHorizon()
	for _, id := range g.Nodes() {
		prof := o.Profiles[id]
		cfg, d := o.plan.Configs[id], o.plan.Decisions[id]
		sim.SetDirective(id, simulator.Directive{
			Config:      cfg,
			Policy:      d.Policy,
			KeepAlive:   ka,
			PrewarmLead: prof.InitTime(cfg),
			PathOffset:  offsets[id],
			// Absorb small overlaps by batching into the busy instance.
			Batch:     4,
			Instances: 8,
			MinWarm:   minWarmOracle(d.Policy, it, ka),
		})
	}
}

// minWarmOracle pins one instance resident for keep-alive functions whose
// mean inter-arrival time sits within the keep-alive horizon.
func minWarmOracle(p coldstart.Policy, it, ka float64) int {
	if p == coldstart.KeepAlive && it <= ka {
		return 1
	}
	return 0
}
