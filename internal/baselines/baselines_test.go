package baselines

import (
	"math"
	"testing"

	"smiless/internal/apps"
	"smiless/internal/controller"
	"smiless/internal/dag"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/perfmodel"
	"smiless/internal/simulator"
	"smiless/internal/trace"
)

// evalTrace is a shared moderate diurnal workload: smoothly varying rate,
// predictable enough for the lightweight fallback predictors these unit
// tests run with. The bursty Azure-like evaluation lives in the experiment
// harness, where SMIless runs its LSTM predictors.
func evalTrace(seed int64, horizon float64) *trace.Trace {
	r := mathx.NewRand(seed)
	return trace.Diurnal(r, 0.25, 0.6, 300, horizon)
}

// runAll evaluates every system on the same app/trace/SLA.
func runAll(t *testing.T, app func() *apps.Application, tr *trace.Trace, sla float64) map[string]*simulator.RunStats {
	t.Helper()
	cat := hardware.DefaultCatalog()
	profiles := func() map[dag.NodeID]*perfmodel.Profile {
		return app().TrueProfiles(perfmodel.DefaultUncertainty)
	}
	smilessOpts := controller.DefaultOptions(1)
	smilessOpts.Forecaster = "" // keep the comparative test fast
	drivers := []simulator.Driver{
		controller.New(cat, profiles(), sla, smilessOpts),
		NewOrion(cat, profiles(), sla),
		NewIceBreaker(cat, profiles(), sla),
		NewGrandSLAm(cat, profiles(), sla),
		NewAquatope(cat, profiles(), sla, 7),
		NewOPT(cat, profiles(), sla, tr.Arrivals),
	}
	out := map[string]*simulator.RunStats{}
	for _, d := range drivers {
		sim := simulator.MustNew(simulator.Config{App: app(), SLA: sla, Seed: 99}, d)
		st := sim.MustRun(tr)
		if st.Completed != tr.Len() {
			t.Fatalf("%s completed %d/%d", d.Name(), st.Completed, tr.Len())
		}
		out[d.Name()] = st
	}
	return out
}

func TestComparativeOrderings(t *testing.T) {
	tr := evalTrace(3, 900)
	res := runAll(t, apps.ImageQuery, tr, 2.0)

	sm := res["SMIless"]
	opt := res["OPT"]
	gs := res["GrandSLAm"]
	ib := res["IceBreaker"]
	aq := res["Aquatope"]
	orion := res["Orion"]

	// Fig. 8: every baseline costs more than SMIless except possibly
	// Aquatope (which trades violations for cost) and OPT.
	if gs.TotalCost <= sm.TotalCost {
		t.Errorf("GrandSLAm cost %.4f should exceed SMIless %.4f (always-on residency)", gs.TotalCost, sm.TotalCost)
	}
	if ib.TotalCost <= sm.TotalCost {
		t.Errorf("IceBreaker cost %.4f should exceed SMIless %.4f (GPU keep-alive)", ib.TotalCost, sm.TotalCost)
	}
	if orion.TotalCost <= sm.TotalCost {
		t.Errorf("Orion cost %.4f should exceed SMIless %.4f", orion.TotalCost, sm.TotalCost)
	}
	// SMIless stays within striking distance of the oracle (paper: +50%).
	if sm.TotalCost > opt.TotalCost*2.5 {
		t.Errorf("SMIless cost %.4f more than 2.5x OPT %.4f", sm.TotalCost, opt.TotalCost)
	}
	if sm.TotalCost < opt.TotalCost*0.5 {
		t.Errorf("SMIless cost %.4f implausibly below OPT %.4f", sm.TotalCost, opt.TotalCost)
	}
	// SLA compliance: SMIless and OPT near zero; Aquatope materially worse.
	if sm.ViolationRate() > 0.08 {
		t.Errorf("SMIless violation rate %.1f%%, want < 8%%", sm.ViolationRate()*100)
	}
	if opt.ViolationRate() > 0.08 {
		t.Errorf("OPT violation rate %.1f%%, want < 8%%", opt.ViolationRate()*100)
	}
	if aq.ViolationRate() <= sm.ViolationRate() {
		t.Errorf("Aquatope violations %.1f%% should exceed SMIless %.1f%%", aq.ViolationRate()*100, sm.ViolationRate()*100)
	}

	// Fig. 9(a): IceBreaker parks work on GPUs — its CPU:GPU billed-seconds
	// ratio must be the lowest among managed systems.
	if !math.IsInf(ib.CPUGPURatio(), 0) {
		for name, st := range res {
			if name == "IceBreaker" {
				continue
			}
			if r := st.CPUGPURatio(); !math.IsInf(r, 0) && r < ib.CPUGPURatio() {
				t.Errorf("IceBreaker CPU:GPU %.2f should be the smallest, but %s has %.2f", ib.CPUGPURatio(), name, r)
			}
		}
	}

	// Fig. 9(b): Aquatope re-initializes the most; GrandSLAm the least.
	for name, st := range res {
		if name == "Aquatope" {
			continue
		}
		if st.ReinitFraction() > aq.ReinitFraction() {
			t.Errorf("Aquatope reinit %.2f should be max, but %s has %.2f", aq.ReinitFraction(), name, st.ReinitFraction())
		}
	}
	if gs.ReinitFraction() > sm.ReinitFraction() {
		t.Errorf("GrandSLAm reinit %.2f should not exceed SMIless %.2f", gs.ReinitFraction(), sm.ReinitFraction())
	}
}

func TestOrionViolatesUnderPressure(t *testing.T) {
	// §II-C2/Fig. 8: without inter-arrival awareness Orion violates more
	// than SMIless under dynamic arrivals with a tight SLA.
	tr := evalTrace(11, 600)
	res := runAll(t, apps.VoiceAssistant, tr, 1.5)
	if res["Orion"].ViolationRate() <= res["SMIless"].ViolationRate() {
		t.Errorf("Orion violations %.1f%% should exceed SMIless %.1f%%",
			res["Orion"].ViolationRate()*100, res["SMIless"].ViolationRate()*100)
	}
}

func TestOPTPlanOptimalOnChain(t *testing.T) {
	// The oracle's DP must match brute force on a small chain.
	app := apps.Pipeline(3)
	profiles := app.TrueProfiles(perfmodel.DefaultUncertainty)
	cat := hardware.DefaultCatalog()
	arrivals := []float64{0, 20, 40, 60}
	o := NewOPT(cat, profiles, 2.0, arrivals)
	plan, cost, ok := o.Plan(app.Graph)
	if !ok {
		t.Fatal("plan infeasible")
	}
	if len(plan) != 3 {
		t.Fatalf("plan covers %d functions", len(plan))
	}
	// Brute force against the same effective budget the oracle plans to
	// (the SLA shrunk by its noise margin).
	it := o.trueIT()
	best := math.Inf(1)
	budget := 2.0 * PlanMargin
	chain := app.Graph.TopoSort()
	var rec func(i int, lat, c float64)
	rec = func(i int, lat, c float64) {
		if lat > budget || c >= best {
			return
		}
		if i == len(chain) {
			best = c
			return
		}
		for _, cfg := range cat.Configs {
			cc, inf, _ := o.nodeCost(chain[i], cfg, it)
			rec(i+1, lat+inf, c+cc)
		}
	}
	rec(0, 0, 0)
	if cost > best*1.02+1e-12 {
		t.Errorf("OPT DP cost %.6f exceeds brute force %.6f by more than discretization slack", cost, best)
	}
	if cost < best-1e-9 {
		t.Errorf("OPT DP cost %.6f below brute force optimum %.6f (impossible)", cost, best)
	}
}

func TestOPTPlanHandlesDAG(t *testing.T) {
	for _, app := range apps.All() {
		profiles := app.TrueProfiles(perfmodel.DefaultUncertainty)
		o := NewOPT(hardware.DefaultCatalog(), profiles, 2.0, []float64{0, 15, 30})
		plan, cost, ok := o.Plan(app.Graph)
		if !ok {
			t.Errorf("%s: OPT infeasible at SLA 2s", app.Name)
			continue
		}
		if len(plan) != app.Graph.Len() {
			t.Errorf("%s: plan covers %d/%d", app.Name, len(plan), app.Graph.Len())
		}
		if cost <= 0 {
			t.Errorf("%s: non-positive plan cost", app.Name)
		}
		// The plan must satisfy the SLA analytically.
		if lat := criticalPathLatency(app.Graph, profiles, plan, 1); lat > 2.0+1e-9 {
			t.Errorf("%s: plan latency %.3f exceeds SLA", app.Name, lat)
		}
	}
}

func TestOPTInfeasibleFallsBack(t *testing.T) {
	app := apps.Pipeline(4)
	profiles := app.TrueProfiles(perfmodel.DefaultUncertainty)
	o := NewOPT(hardware.DefaultCatalog(), profiles, 0.01, []float64{0, 10})
	plan, _, ok := o.Plan(app.Graph)
	if ok {
		t.Error("10 ms SLA should be infeasible")
	}
	if len(plan) != app.Graph.Len() {
		t.Error("fallback plan incomplete")
	}
}

func TestGrandSLAmKeepsResident(t *testing.T) {
	tr := &trace.Trace{Horizon: 300, Arrivals: []float64{10, 150, 290}}
	app := apps.ImageQuery()
	profiles := app.TrueProfiles(perfmodel.DefaultUncertainty)
	d := NewGrandSLAm(hardware.DefaultCatalog(), profiles, 2.0)
	sim := simulator.MustNew(simulator.Config{App: app, SLA: 2.0, Seed: 5}, d)
	st := sim.MustRun(tr)
	if st.Completed != 3 {
		t.Fatalf("completed %d/3", st.Completed)
	}
	// Sparse requests but always-on residency: billed seconds approach the
	// horizon per function.
	if st.CPUSeconds+st.GPUSeconds < 300 {
		t.Errorf("billed %v seconds; always-on residency should bill ~horizon x functions", st.CPUSeconds+st.GPUSeconds)
	}
	// The static fleet initializes once: at most MaxInstances per function.
	if st.Inits > d.MaxInstances*app.Graph.Len() {
		t.Errorf("inits = %d, want <= %d for a static fleet", st.Inits, d.MaxInstances*app.Graph.Len())
	}
}

func TestIceBreakerPrefersGPUForHeavyModels(t *testing.T) {
	app := apps.AmberAlert()
	profiles := app.TrueProfiles(perfmodel.DefaultUncertainty)
	b := NewIceBreaker(hardware.DefaultCatalog(), profiles, 2.0)
	gpuCount := 0
	for _, id := range app.Graph.Nodes() {
		if b.chooseConfig(id).Kind == hardware.GPU {
			gpuCount++
		}
	}
	if gpuCount < app.Graph.Len()/2 {
		t.Errorf("IceBreaker chose GPU for only %d/%d functions; expected a GPU-heavy fleet", gpuCount, app.Graph.Len())
	}
}

func TestAquatopeExploresConfigs(t *testing.T) {
	tr := evalTrace(13, 400)
	app := apps.ImageQuery()
	profiles := app.TrueProfiles(perfmodel.DefaultUncertainty)
	a := NewAquatope(hardware.DefaultCatalog(), profiles, 2.0, 3)
	sim := simulator.MustNew(simulator.Config{App: app, SLA: 2.0, Seed: 17}, a)
	st := sim.MustRun(tr)
	if st.Completed != tr.Len() {
		t.Fatalf("completed %d/%d", st.Completed, tr.Len())
	}
	// BO must have accumulated observations for every function.
	for _, id := range app.Graph.Nodes() {
		if len(a.obs[id]) == 0 {
			t.Errorf("no BO observations for %s", id)
		}
	}
}

func TestGPPredictSanity(t *testing.T) {
	obs := []gpObs{
		{x: []float64{0, 0.1}, y: 1.0},
		{x: []float64{0, 0.2}, y: 1.1},
		{x: []float64{1, 0.5}, y: 3.0},
	}
	// Near a training point the posterior mean approaches its value and
	// the variance shrinks.
	mean, std := gpPredict(obs, []float64{0, 0.1})
	if math.Abs(mean-1.0) > 0.5 {
		t.Errorf("posterior mean %v far from observation 1.0", mean)
	}
	farMean, farStd := gpPredict(obs, []float64{1, 5})
	_ = farMean
	if farStd <= std {
		t.Errorf("distant point std %v should exceed near point std %v", farStd, std)
	}
}

func TestExpectedImprovement(t *testing.T) {
	// EI is larger for lower predicted mean at equal std.
	hi := expectedImprovement(0.5, 0.2, 1.0)
	lo := expectedImprovement(0.9, 0.2, 1.0)
	if hi <= lo {
		t.Errorf("EI(0.5) = %v should exceed EI(0.9) = %v", hi, lo)
	}
	if expectedImprovement(1, 0, 1) != 0 {
		t.Error("zero-std EI should be 0")
	}
}

func TestPathOffsets(t *testing.T) {
	app := apps.ImageQuery()
	profiles := app.TrueProfiles(0)
	cfgs := map[dag.NodeID]hardware.Config{}
	for _, id := range app.Graph.Nodes() {
		cfgs[id] = hardware.Config{Kind: hardware.CPU, Cores: 4}
	}
	off := pathOffsets(app.Graph, profiles, cfgs, 1)
	if off["IR"] != 0 {
		t.Errorf("entry offset = %v, want 0", off["IR"])
	}
	// QA waits for the slower of DB/TM after IR.
	ir := profiles["IR"].InferenceTime(cfgs["IR"], 1)
	db := profiles["DB"].InferenceTime(cfgs["DB"], 1)
	tm := profiles["TM"].InferenceTime(cfgs["TM"], 1)
	want := ir + math.Max(db, tm)
	if math.Abs(off["QA"]-want) > 1e-9 {
		t.Errorf("QA offset = %v, want %v", off["QA"], want)
	}
}

func TestMeanInterArrival(t *testing.T) {
	if got := meanInterArrival(nil, 10, 42); got != 42 {
		t.Errorf("empty arrivals: %v, want default", got)
	}
	if got := meanInterArrival([]float64{0, 2, 4, 6}, 10, 42); got != 2 {
		t.Errorf("mean IA = %v, want 2", got)
	}
	if got := meanInterArrival([]float64{0, 100, 102, 104}, 3, 42); got != 2 {
		t.Errorf("tail mean IA = %v, want 2", got)
	}
}

func TestHybridHistogramRuns(t *testing.T) {
	tr := evalTrace(21, 900)
	app := apps.ImageQuery()
	profiles := app.TrueProfiles(perfmodel.DefaultUncertainty)
	d := NewHybridHistogram(hardware.DefaultCatalog(), profiles, 2.0)
	sim := simulator.MustNew(simulator.Config{App: app, SLA: 2.0, Seed: 21}, d)
	st := sim.MustRun(tr)
	if st.Completed != tr.Len() {
		t.Fatalf("completed %d/%d", st.Completed, tr.Len())
	}
	// The histograms must have accumulated idle observations.
	for _, id := range app.Graph.Nodes() {
		if d.hist[id].Samples() == 0 {
			t.Errorf("no idle samples for %s", id)
		}
	}
	if st.TotalCost <= 0 {
		t.Error("no cost accrued")
	}
}
