package core

import (
	"math"
	"testing"

	"smiless/internal/apps"
	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/hardware"
	"smiless/internal/perfmodel"
	"smiless/internal/units"
)

func profilesFor(app *apps.Application) map[dag.NodeID]*perfmodel.Profile {
	return app.TrueProfiles(perfmodel.DefaultUncertainty)
}

func TestLenientSLAPicksCheapest(t *testing.T) {
	// With a huge SLA and long inter-arrival time, the root node T0 (all
	// functions on their cost-minimizing config) must win immediately.
	app := apps.Pipeline(3)
	o := New(hardware.DefaultCatalog())
	res, err := o.Optimize(Request{
		Graph: app.Graph, Profiles: profilesFor(app), SLA: 1000, IT: 600, Batch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("lenient SLA should be feasible")
	}
	// With adaptive pre-warming and long IT the per-invocation cost of a
	// config is (T+I)·U; verify each chosen config is the argmin.
	for _, id := range app.Graph.Nodes() {
		prof := profilesFor(app)[id]
		best := math.Inf(1)
		var bestCfg hardware.Config
		for _, cfg := range o.Catalog.Configs {
			ti := prof.InitTime(cfg)
			ii := prof.InferenceTime(cfg, 1)
			d := coldstart.Decide(ti, ii, 600)
			c := coldstart.CostPerInvocation(d, ti, ii, 600, o.Catalog.UnitCost(cfg))
			if c < best {
				best = c
				bestCfg = cfg
			}
		}
		if res.Plan.Configs[id] != bestCfg {
			t.Errorf("%s: config %v, want cost-minimizing %v", id, res.Plan.Configs[id], bestCfg)
		}
	}
}

func TestTightSLAMeetsDeadline(t *testing.T) {
	app := apps.Pipeline(4)
	o := New(hardware.DefaultCatalog())
	res, err := o.Optimize(Request{
		Graph: app.Graph, Profiles: profilesFor(app), SLA: 2.0, IT: 30, Batch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("SLA 2s should be feasible for a 4-function pipeline with GPUs available")
	}
	if res.Eval.E2ELatency > 2.0 {
		t.Errorf("E2E = %v, exceeds SLA 2.0", res.Eval.E2ELatency)
	}
}

func TestInfeasibleSLA(t *testing.T) {
	app := apps.Pipeline(6)
	o := New(hardware.DefaultCatalog())
	res, err := o.Optimize(Request{
		Graph: app.Graph, Profiles: profilesFor(app), SLA: 0.05, IT: 30, Batch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Error("50 ms SLA for 6 functions should be infeasible")
	}
	// Best effort: every function on some config, plan complete.
	if len(res.Plan.Configs) != app.Graph.Len() {
		t.Errorf("plan covers %d functions, want %d", len(res.Plan.Configs), app.Graph.Len())
	}
}

func TestStricterSLACostsMore(t *testing.T) {
	app := apps.VoiceAssistant()
	o := New(hardware.DefaultCatalog())
	profiles := profilesFor(app)
	var prev float64
	first := true
	// Paper Fig. 10a: cost is non-increasing as the SLA loosens.
	for _, sla := range []float64{1.5, 2, 3, 4, 6} {
		res, err := o.Optimize(Request{Graph: app.Graph, Profiles: profiles, SLA: sla, IT: 20, Batch: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible {
			t.Fatalf("SLA %v should be feasible", sla)
		}
		if !first && res.Eval.CostPerInvocation > prev*1.0001 {
			t.Errorf("cost at SLA %v (%v) exceeds cost at tighter SLA (%v)", sla, res.Eval.CostPerInvocation, prev)
		}
		prev = res.Eval.CostPerInvocation
		first = false
	}
}

// exhaustiveChain finds the true optimum on a chain by brute force.
func exhaustiveChain(t *testing.T, chain []dag.NodeID, g *dag.Graph, profiles map[dag.NodeID]*perfmodel.Profile, cat *hardware.Catalog, sla, it float64) (float64, bool) {
	t.Helper()
	best := math.Inf(1)
	found := false
	var rec func(i int, plan *coldstart.Plan)
	rec = func(i int, plan *coldstart.Plan) {
		if i == len(chain) {
			ev, err := coldstart.Evaluate(g, profiles, plan, cat.Pricing, it, 1)
			if err != nil {
				t.Fatal(err)
			}
			if ev.E2ELatency <= sla && ev.CostPerInvocation < best {
				best = ev.CostPerInvocation
				found = true
			}
			return
		}
		for _, cfg := range cat.Configs {
			prof := profiles[chain[i]]
			ti := prof.InitTime(cfg)
			ii := prof.InferenceTime(cfg, 1)
			plan.Configs[chain[i]] = cfg
			plan.Decisions[chain[i]] = coldstart.Decide(ti, ii, it)
			rec(i+1, plan)
		}
	}
	rec(0, coldstart.NewPlan())
	return best, found
}

func TestNearOptimalOnChain(t *testing.T) {
	// Paper Fig. 8: SMIless lands within ~50% of the exhaustive optimum.
	app := apps.Pipeline(3)
	profiles := profilesFor(app)
	cat := hardware.DefaultCatalog()
	o := New(cat)
	chain := app.Graph.TopoSort()
	for _, sla := range []float64{1.0, 2.0, 4.0} {
		opt, ok := exhaustiveChain(t, chain, app.Graph, profiles, cat, sla, 20)
		res, err := o.Optimize(Request{Graph: app.Graph, Profiles: profiles, SLA: sla, IT: 20, Batch: 1})
		if err != nil {
			t.Fatal(err)
		}
		if ok != res.Feasible {
			t.Errorf("SLA %v: feasible = %v, exhaustive says %v", sla, res.Feasible, ok)
			continue
		}
		if !ok {
			continue
		}
		if res.Eval.CostPerInvocation < opt-1e-12 {
			t.Errorf("SLA %v: cost %v below exhaustive optimum %v (impossible)", sla, res.Eval.CostPerInvocation, opt)
		}
		if res.Eval.CostPerInvocation > opt*1.5+1e-12 {
			t.Errorf("SLA %v: cost %v more than 1.5x optimum %v", sla, res.Eval.CostPerInvocation, opt)
		}
	}
}

func TestDAGCombineMeetsSLA(t *testing.T) {
	for _, app := range apps.All() {
		o := New(hardware.DefaultCatalog())
		res, err := o.Optimize(Request{
			Graph: app.Graph, Profiles: profilesFor(app), SLA: 2.0, IT: 15, Batch: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if !res.Feasible {
			t.Errorf("%s: SLA 2s should be feasible", app.Name)
			continue
		}
		if res.Eval.E2ELatency > 2.0+1e-9 {
			t.Errorf("%s: E2E %v exceeds SLA", app.Name, res.Eval.E2ELatency)
		}
		if len(res.Plan.Configs) != app.Graph.Len() {
			t.Errorf("%s: plan covers %d/%d functions", app.Name, len(res.Plan.Configs), app.Graph.Len())
		}
	}
}

func TestSearchOverheadScalesLinearly(t *testing.T) {
	// Fig. 16a: explored nodes grow roughly linearly with chain length.
	o := New(hardware.DefaultCatalog())
	explored := map[int]int{}
	for _, n := range []int{4, 8, 12} {
		app := apps.Pipeline(n)
		res, err := o.Optimize(Request{
			Graph: app.Graph, Profiles: profilesFor(app), SLA: 2.0, IT: 10, Batch: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		explored[n] = res.NodesExplored
		// Worst case per the complexity analysis: O(N·M) nodes.
		maxNodes := n*o.Catalog.Len() + 1
		if res.NodesExplored > maxNodes {
			t.Errorf("N=%d explored %d nodes, want <= %d", n, res.NodesExplored, maxNodes)
		}
	}
	if !(explored[4] < explored[8] && explored[8] < explored[12]) {
		t.Errorf("explored counts not increasing: %v", explored)
	}
}

func TestTopKNotWorse(t *testing.T) {
	app := apps.VoiceAssistant()
	profiles := profilesFor(app)
	cat := hardware.DefaultCatalog()
	top1 := New(cat)
	top3 := New(cat)
	top3.TopK = 3
	for _, sla := range []float64{1.5, 2, 3} {
		r1, err := top1.Optimize(Request{Graph: app.Graph, Profiles: profiles, SLA: sla, IT: 15, Batch: 1})
		if err != nil {
			t.Fatal(err)
		}
		r3, err := top3.Optimize(Request{Graph: app.Graph, Profiles: profiles, SLA: sla, IT: 15, Batch: 1})
		if err != nil {
			t.Fatal(err)
		}
		// The beam and the refinement pass explore different local optima,
		// so top-3 is not strictly dominant; it must stay in the same band.
		if r3.Eval.CostPerInvocation > r1.Eval.CostPerInvocation*1.2 {
			t.Errorf("SLA %v: top-3 cost %v far exceeds top-1 cost %v", sla, r3.Eval.CostPerInvocation, r1.Eval.CostPerInvocation)
		}
		if !r3.Feasible || r3.Eval.E2ELatency > sla {
			t.Errorf("SLA %v: top-3 result violates SLA", sla)
		}
	}
}

func TestCPUOnlyCatalogRestricts(t *testing.T) {
	// The SMIless-Homo ablation: with only CPUs, tight SLAs become
	// infeasible where the full catalog succeeds.
	app := apps.AmberAlert()
	profiles := profilesFor(app)
	full := New(hardware.DefaultCatalog())
	homo := New(hardware.CPUOnlyCatalog())
	sla := 0.5
	rf, err := full.Optimize(Request{Graph: app.Graph, Profiles: profiles, SLA: sla, IT: 15, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	rh, err := homo.Optimize(Request{Graph: app.Graph, Profiles: profiles, SLA: sla, IT: 15, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rf.Feasible {
		t.Error("heterogeneous catalog should meet SLA 0.5s")
	}
	if rh.Feasible {
		t.Error("CPU-only catalog should fail SLA 0.5s for AMBER Alert")
	}
	for _, cfg := range rh.Plan.Configs {
		if cfg.Kind != hardware.CPU {
			t.Errorf("homo plan contains %v", cfg)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	app := apps.Pipeline(2)
	o := New(hardware.DefaultCatalog())
	if _, err := o.Optimize(Request{Graph: app.Graph, Profiles: profilesFor(app), SLA: 0, IT: 1}); err == nil {
		t.Error("zero SLA should error")
	}
	if _, err := o.Optimize(Request{Graph: app.Graph, Profiles: profilesFor(app), SLA: math.NaN(), IT: 1}); err == nil {
		t.Error("NaN SLA should error")
	}
	// Missing profile.
	p := profilesFor(app)
	for k := range p {
		delete(p, k)
		break
	}
	if _, err := o.Optimize(Request{Graph: app.Graph, Profiles: p, SLA: 2, IT: 1}); err == nil {
		t.Error("missing profile should error")
	}
}

func TestHighRateFavorsKeepAlive(t *testing.T) {
	// With very short IT, no function can pre-warm (T+I >= IT everywhere).
	app := apps.Pipeline(3)
	o := New(hardware.DefaultCatalog())
	res, err := o.Optimize(Request{
		Graph: app.Graph, Profiles: profilesFor(app), SLA: 3, IT: 0.2, Batch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, d := range res.Plan.Decisions {
		if d.Policy != coldstart.KeepAlive {
			t.Errorf("%s: policy %v, want keep-alive at IT=0.2s", id, d.Policy)
		}
	}
}

func TestLowRateFavorsPrewarm(t *testing.T) {
	app := apps.Pipeline(3)
	o := New(hardware.DefaultCatalog())
	res, err := o.Optimize(Request{
		Graph: app.Graph, Profiles: profilesFor(app), SLA: 10, IT: 300, Batch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, d := range res.Plan.Decisions {
		if d.Policy != coldstart.Prewarm {
			t.Errorf("%s: policy %v, want prewarm at IT=300s", id, d.Policy)
		}
		if d.Window <= 0 {
			t.Errorf("%s: non-positive pre-warm window %v", id, d.Window)
		}
	}
}

// TestOverloadedCandidateExcluded is the regression test for the ρ ≥ 1 bug:
// QueueAwareLatency used to clamp utilization at 0.9, scoring a config whose
// sustained arrivals outpace its service rate as merely 10× its inference
// time — so under a loose SLA the overloaded cheap config won the search
// even though its queue grows without bound. It must now score +Inf and
// never be chosen.
func TestOverloadedCandidateExcluded(t *testing.T) {
	if !math.IsInf(QueueAwareLatency(2.0, 1.0), 1) {
		t.Fatalf("rho=2: got %v, want +Inf", QueueAwareLatency(2.0, 1.0))
	}
	if !math.IsInf(QueueAwareLatency(1.0, 1.0), 1) {
		t.Fatalf("rho=1: got %v, want +Inf", QueueAwareLatency(1.0, 1.0))
	}
	// Near-saturated but stable candidates stay finite (0.9 clamp).
	if v := QueueAwareLatency(0.95, 1.0); math.IsInf(v, 1) || v <= 0.95 {
		t.Fatalf("rho=0.95: got %v, want finite inflated latency", v)
	}

	// One function, two flavors: a cheap 1-core config that needs 2 s per
	// inference against a 1 s mean inter-arrival time (ρ = 2, overloaded)
	// and an 8-core config that is stable at ρ = 0.25. The SLA of 25 s is
	// loose enough that the clamped score 2/(1−0.9) = 20 s used to pass.
	g := dag.New()
	g.MustAddNode("f", "m")
	cheap := hardware.Config{Kind: hardware.CPU, Cores: 1}
	fast := hardware.Config{Kind: hardware.CPU, Cores: 8}
	cat := &hardware.Catalog{
		Configs: []hardware.Config{cheap, fast},
		Pricing: hardware.Pricing{CPUPerCoreHour: 0.04, GPUPerHour: 0.9},
	}
	prof := &perfmodel.Profile{
		Function: "f",
		CPUInf:   perfmodel.InferenceModel{Kind: hardware.CPU, A: 2}, // 2 s @1 core, 0.25 s @8
		CPUInit:  perfmodel.InitModel{Kind: hardware.CPU, Mu: units.Seconds(1), N: 3},
		GPUInf:   perfmodel.InferenceModel{Kind: hardware.GPU, A: 100},
		GPUInit:  perfmodel.InitModel{Kind: hardware.GPU, Mu: units.Seconds(5), N: 3},
	}
	o := New(cat)
	res, err := o.Optimize(Request{
		Graph:    g,
		Profiles: map[dag.NodeID]*perfmodel.Profile{"f": prof},
		SLA:      25, IT: 1, ITMean: 1, Batch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("a stable candidate exists; the problem is feasible")
	}
	if res.Plan.Configs["f"] == cheap {
		t.Fatalf("optimizer chose the overloaded 1-core config (queue grows without bound); want %v", fast)
	}
}

// TestPathStatsAccounting checks the Fig. 16 search-trace hooks: per-path
// stats are present, their explored counts reconcile with the total and the
// per-layer breakdown, and path lengths match the decomposition.
func TestPathStatsAccounting(t *testing.T) {
	app := apps.Pipeline(4)
	o := New(hardware.DefaultCatalog())
	res, err := o.Optimize(Request{
		Graph: app.Graph, Profiles: profilesFor(app), SLA: 3, IT: 0.2, Batch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != len(app.Graph.Decompose()) {
		t.Fatalf("got %d path stats, want %d", len(res.Paths), len(app.Graph.Decompose()))
	}
	total := 0
	for i, ps := range res.Paths {
		total += ps.Explored
		if ps.Length != len(app.Graph.Decompose()[i]) {
			t.Errorf("path %d: length %d, want %d", i, ps.Length, len(app.Graph.Decompose()[i]))
		}
		layerSum := 0
		for _, n := range ps.PerLayer {
			layerSum += n
		}
		// Root probe plus per-layer children; a root-feasible path has no
		// layers at all.
		if len(ps.PerLayer) > 0 && ps.Explored != 1+layerSum {
			t.Errorf("path %d: explored %d, want 1+sum(perLayer)=%d", i, ps.Explored, 1+layerSum)
		}
		if ps.Nanos < 0 {
			t.Errorf("path %d: negative search duration %d", i, ps.Nanos)
		}
	}
	if total != res.NodesExplored {
		t.Errorf("sum of per-path explored %d != NodesExplored %d", total, res.NodesExplored)
	}
}
