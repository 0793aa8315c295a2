package experiments

import (
	"fmt"
	"math/rand"

	"smiless/internal/apps"
	"smiless/internal/baselines"
	"smiless/internal/coldstart"
	"smiless/internal/core"
	"smiless/internal/dag"
	"smiless/internal/hardware"
	"smiless/internal/perfmodel"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Fig2Result reproduces Fig. 2: warm and cold inference latency of HAP, TG
// and TRS on a 16-core CPU versus a full GPU, plus the unit-price ratio.
type Fig2Result struct {
	Functions []string
	WarmCPU   []float64
	WarmGPU   []float64
	ColdCPU   []float64
	ColdGPU   []float64
	// PriceRatio is GPU unit cost over 16-core CPU unit cost.
	PriceRatio float64
}

// Fig2 measures the Fig. 2 quantities from the ground-truth models.
func Fig2() *Fig2Result {
	cpu := hardware.Config{Kind: hardware.CPU, Cores: 16}
	gpu := hardware.Config{Kind: hardware.GPU, GPUShare: 100}
	res := &Fig2Result{
		PriceRatio: hardware.DefaultPricing.UnitCost(gpu) / hardware.DefaultPricing.UnitCost(cpu),
	}
	for _, name := range []string{"HAP", "TG", "TRS"} {
		f := apps.Functions[name]
		res.Functions = append(res.Functions, name)
		res.WarmCPU = append(res.WarmCPU, f.MeanInference(cpu, 1))
		res.WarmGPU = append(res.WarmGPU, f.MeanInference(gpu, 1))
		res.ColdCPU = append(res.ColdCPU, f.MeanInit(cpu)+f.MeanInference(cpu, 1))
		res.ColdGPU = append(res.ColdGPU, f.MeanInit(gpu)+f.MeanInference(gpu, 1))
	}
	return res
}

// Table renders the figure's series.
func (r *Fig2Result) Table() *Table {
	t := &Table{
		Title:  "Fig. 2 — inference latency under different hardware (seconds)",
		Header: []string{"function", "warm CPU-16c", "warm GPU", "cold CPU-16c", "cold GPU", "warm speedup"},
	}
	for i, f := range r.Functions {
		t.Rows = append(t.Rows, []string{
			f,
			fmt.Sprintf("%.3f", r.WarmCPU[i]),
			fmt.Sprintf("%.3f", r.WarmGPU[i]),
			fmt.Sprintf("%.3f", r.ColdCPU[i]),
			fmt.Sprintf("%.3f", r.ColdGPU[i]),
			fmt.Sprintf("%.1fx", r.WarmCPU[i]/r.WarmGPU[i]),
		})
	}
	t.Rows = append(t.Rows, []string{"price GPU:CPU-16c", fmt.Sprintf("%.1fx", r.PriceRatio), "", "", "", ""})
	return t
}

// Fig3Result reproduces the Fig. 3 motivating example: a three-function
// pipeline with two closely spaced invocations under a 6.5 s SLA, comparing
// the per-invocation cost of Orion's right-pre-warming sizing, IceBreaker's
// per-function choice, and the co-optimized (SMIless/optimal) plan.
type Fig3Result struct {
	OrionCost, IceBreakerCost, OptimalCost float64
	OrionLatency, OptimalLatency           float64
	// SavingVsOrion and SavingVsIceBreaker are fractional cost reductions
	// of the optimal plan (the paper reports 37.7% and 33%).
	SavingVsOrion, SavingVsIceBreaker float64
}

// Fig3 evaluates the motivating example analytically with the closed-form
// cost model (Eq. 3-5), the same arithmetic the figure illustrates.
func Fig3() *Fig3Result {
	app := apps.Pipeline(3)
	profiles := app.TrueProfiles(perfmodel.DefaultUncertainty)
	cat := hardware.DefaultCatalog()
	const (
		sla = 6.5
		it  = 3.0 // the second invocation arrives shortly after the first
	)

	// Orion: sizes assuming perfect overlap, i.e. per-invocation cost
	// (T+I)·U, ignoring IT; under the actual IT its functions cannot
	// pre-warm (T+I > IT mostly), so it pays terminate-and-restart.
	orion := coldstart.NewPlan()
	{
		d := baselinePlanOrion(app.Graph, profiles, cat, sla)
		for id, cfg := range d {
			prof := profiles[id]
			orion.Configs[id] = cfg
			// Orion assumes right pre-warming regardless of IT.
			orion.Decisions[id] = coldstart.Decision{Policy: coldstart.NoMitigation}
			_ = prof
		}
	}
	orionEval, err := coldstart.Evaluate(app.Graph, profiles, orion, cat.Pricing, it, 1)
	if err != nil {
		panic(err)
	}
	// When the second invocation arrives while Orion's instances are still
	// initializing, Orion "needs to launch additional instances ... to
	// prevent SLA violation" (§II-C2): every function after the entry is
	// billed twice.
	orionCost := orionEval.PerFunction[app.Graph.TopoSort()[0]]
	for _, id := range app.Graph.TopoSort()[1:] {
		orionCost += 2 * orionEval.PerFunction[id]
	}

	// IceBreaker: per-function speedup-to-cost choice, keep-alive billing.
	ice := coldstart.NewPlan()
	icebreaker := baselines.NewIceBreaker(cat, profiles, sla)
	for _, id := range app.Graph.Nodes() {
		cfg := icebreaker.ChooseConfig(id)
		ice.Configs[id] = cfg
		ice.Decisions[id] = coldstart.Decision{Policy: coldstart.KeepAlive}
	}
	// IceBreaker keeps instances alive between invocations: billed one
	// inter-arrival interval per invocation on its (GPU-heavy) configs.
	iceEval, err := coldstart.Evaluate(app.Graph, profiles, ice, cat.Pricing, it, 1)
	if err != nil {
		panic(err)
	}

	// Optimal co-optimized plan (the paper's Fig. 3c): SMIless' optimizer
	// with the adaptive policy at the true IT.
	opt := core.New(cat)
	res, err := opt.Optimize(core.Request{Graph: app.Graph, Profiles: profiles, SLA: sla, IT: it, Batch: 1})
	if err != nil {
		panic(err)
	}

	out := &Fig3Result{
		OrionCost:      orionCost,
		IceBreakerCost: iceEval.CostPerInvocation,
		OptimalCost:    res.Eval.CostPerInvocation,
		OrionLatency:   orionEval.E2ELatency,
		OptimalLatency: res.Eval.E2ELatency,
	}
	out.SavingVsOrion = 1 - out.OptimalCost/out.OrionCost
	out.SavingVsIceBreaker = 1 - out.OptimalCost/out.IceBreakerCost
	return out
}

// baselinePlanOrion reproduces Orion's sizing: cheapest (T+I)·U configs,
// upgraded until the inference-sum meets the SLA.
func baselinePlanOrion(g *dag.Graph, profiles map[dag.NodeID]*perfmodel.Profile, cat *hardware.Catalog, sla float64) map[dag.NodeID]hardware.Config {
	configs := make(map[dag.NodeID]hardware.Config, g.Len())
	for _, id := range g.Nodes() {
		best := cat.Configs[0]
		bestCost := 1e18
		for _, cfg := range cat.Configs {
			c := (profiles[id].InitTime(cfg) + profiles[id].InferenceTime(cfg, 1)) * cat.UnitCost(cfg)
			if c < bestCost {
				bestCost = c
				best = cfg
			}
		}
		configs[id] = best
	}
	sum := func() float64 {
		s := 0.0
		for _, id := range g.Nodes() {
			s += profiles[id].InferenceTime(configs[id], 1)
		}
		return s
	}
	for sum() > sla {
		// Upgrade the slowest function to its next faster config.
		var worst dag.NodeID
		worstI := 0.0
		for _, id := range g.Nodes() {
			if i := profiles[id].InferenceTime(configs[id], 1); i > worstI {
				worstI = i
				worst = id
			}
		}
		cur := profiles[worst].InferenceTime(configs[worst], 1)
		upgraded := false
		for _, cfg := range cat.Configs {
			if profiles[worst].InferenceTime(cfg, 1) < cur {
				configs[worst] = cfg
				upgraded = true
				break
			}
		}
		if !upgraded {
			break
		}
	}
	return configs
}

// Table renders the comparison.
func (r *Fig3Result) Table() *Table {
	return &Table{
		Title:  "Fig. 3 — motivating example (3-function pipeline, SLA 6.5 s, IT 3 s)",
		Header: []string{"system", "cost/invocation ($)", "E2E (s)", "optimal saves"},
		Rows: [][]string{
			{"Orion", fmt.Sprintf("%.6f", r.OrionCost), fmt.Sprintf("%.2f", r.OrionLatency), fmt.Sprintf("%.1f%%", r.SavingVsOrion*100)},
			{"IceBreaker", fmt.Sprintf("%.6f", r.IceBreakerCost), "-", fmt.Sprintf("%.1f%%", r.SavingVsIceBreaker*100)},
			{"Optimal (co-opt)", fmt.Sprintf("%.6f", r.OptimalCost), fmt.Sprintf("%.2f", r.OptimalLatency), "-"},
		},
	}
}
