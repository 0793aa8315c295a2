package controller

import (
	"testing"

	"smiless/internal/apps"
	"smiless/internal/coldstart"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/perfmodel"
	"smiless/internal/simulator"
	"smiless/internal/trace"
)

func liteOptions(seed int64) Options {
	o := DefaultOptions(seed)
	o.Forecaster = "" // keep unit tests fast; LSTM paths covered separately
	return o
}

func runSMIless(t *testing.T, app *apps.Application, tr *trace.Trace, sla float64, opts Options) *simulator.RunStats {
	t.Helper()
	profiles := app.TrueProfiles(perfmodel.DefaultUncertainty)
	drv := New(hardware.DefaultCatalog(), profiles, sla, opts)
	sim := simulator.MustNew(simulator.Config{App: app, SLA: sla, Seed: 42}, drv)
	return sim.MustRun(tr)
}

func TestSMIlessCompletesAll(t *testing.T) {
	r := mathx.NewRand(1)
	tr := trace.Poisson(r, 0.1, 600)
	st := runSMIless(t, apps.ImageQuery(), tr, 2.0, liteOptions(1))
	if st.Completed != tr.Len() {
		t.Fatalf("completed %d/%d", st.Completed, tr.Len())
	}
	if st.TotalCost <= 0 {
		t.Error("no cost accrued")
	}
}

func TestSMIlessLowViolationRate(t *testing.T) {
	// Steady moderate traffic: SMIless should keep violations near zero
	// (the paper reports none).
	r := mathx.NewRand(2)
	tr := trace.Poisson(r, 0.15, 900)
	st := runSMIless(t, apps.ImageQuery(), tr, 2.0, liteOptions(2))
	// Memoryless Poisson arrivals are the predictor's worst case; the
	// Azure-like evaluation traces land under 1% (EXPERIMENTS.md).
	if rate := st.ViolationRate(); rate > 0.07 {
		t.Errorf("violation rate = %.1f%%, want <= 7%%", rate*100)
	}
}

func TestSMIlessCheaperThanAlwaysOn(t *testing.T) {
	// Sparse traffic: adaptive cold-start management must beat keeping
	// everything resident (the GrandSLAm failure mode).
	r := mathx.NewRand(3)
	tr := trace.Poisson(r, 0.02, 1200) // one request every ~50 s
	app := apps.ImageQuery()
	st := runSMIless(t, app, tr, 2.0, liteOptions(3))

	alwaysOn := &staticAlwaysOn{}
	sim := simulator.MustNew(simulator.Config{App: apps.ImageQuery(), SLA: 2.0, Seed: 42}, alwaysOn)
	stAO := sim.MustRun(tr)

	if st.TotalCost >= stAO.TotalCost {
		t.Errorf("SMIless cost %v should be below always-on cost %v on sparse traffic", st.TotalCost, stAO.TotalCost)
	}
}

// staticAlwaysOn keeps everything resident on 4-core CPUs.
type staticAlwaysOn struct{}

func (d *staticAlwaysOn) Name() string { return "always-on" }
func (d *staticAlwaysOn) Setup(sim simulator.ControlPlane) {
	for _, id := range sim.App().Graph.Nodes() {
		sim.SetDirective(id, simulator.Directive{
			Config: hardware.Config{Kind: hardware.CPU, Cores: 4},
			Policy: coldstart.AlwaysOn, Batch: 1, Instances: 4,
		})
		sim.SchedulePrewarm(id, 0)
	}
}
func (d *staticAlwaysOn) OnWindow(sim simulator.ControlPlane, now float64) {
	for _, id := range sim.App().Graph.Nodes() {
		if sim.LiveInstances(id) == 0 {
			sim.SchedulePrewarm(id, now)
		}
	}
}

func TestSMIlessHandlesBurst(t *testing.T) {
	// A burst of 30 requests in one second: adaptive batching + scale out
	// must complete everything with bounded violations.
	arr := make([]float64, 30)
	for i := range arr {
		arr[i] = 60 + float64(i)*0.03
	}
	base := trace.Poisson(mathx.NewRand(4), 0.05, 300)
	tr := trace.Merge(base, &trace.Trace{Horizon: 300, Arrivals: arr})
	st := runSMIless(t, apps.ImageQuery(), tr, 4.0, liteOptions(4))
	if st.Completed != tr.Len() {
		t.Fatalf("completed %d/%d", st.Completed, tr.Len())
	}
	if st.MeanBatch() <= 1.05 {
		t.Errorf("mean batch %v: adaptive batching did not engage", st.MeanBatch())
	}
}

func TestNoDAGAblationCostsMore(t *testing.T) {
	// Fig. 13(a): SMIless-No-DAG pre-warms every function at arrival time,
	// paying for idle downstream containers; with sparse traffic and
	// pre-warm policies the cost should exceed full SMIless.
	r := mathx.NewRand(5)
	tr := trace.Poisson(r, 0.02, 1500)
	app := apps.VoiceAssistant()

	full := runSMIless(t, app, tr, 2.0, liteOptions(5))
	noDag := liteOptions(5)
	noDag.DisableDAG = true
	ablated := runSMIless(t, apps.VoiceAssistant(), tr, 2.0, noDag)

	if ablated.TotalCost < full.TotalCost {
		t.Errorf("No-DAG cost %v should not beat full SMIless %v", ablated.TotalCost, full.TotalCost)
	}
}

func TestHomoAblationViolatesTightSLA(t *testing.T) {
	// Fig. 13(b): CPU-only SMIless misses tight SLAs.
	r := mathx.NewRand(6)
	tr := trace.Poisson(r, 0.1, 600)
	app := apps.AmberAlert()
	profiles := app.TrueProfiles(perfmodel.DefaultUncertainty)
	sla := 0.5 // below the CPU-only floor (~0.76 s), above the GPU floor

	homo := New(hardware.CPUOnlyCatalog(), profiles, sla, liteOptions(6))
	simH := simulator.MustNew(simulator.Config{App: app, SLA: sla, Seed: 42}, homo)
	stH := simH.MustRun(tr)

	het := New(hardware.DefaultCatalog(), app.TrueProfiles(perfmodel.DefaultUncertainty), sla, liteOptions(6))
	simF := simulator.MustNew(simulator.Config{App: apps.AmberAlert(), SLA: sla, Seed: 42}, het)
	stF := simF.MustRun(tr)

	if stH.ViolationRate() <= stF.ViolationRate() {
		t.Errorf("homo violation rate %.1f%% should exceed heterogeneous %.1f%%",
			stH.ViolationRate()*100, stF.ViolationRate()*100)
	}
	if stH.ViolationRate() < 0.5 {
		t.Errorf("homo violation rate %.1f%%: a 0.5 s SLA should be mostly missed on CPUs", stH.ViolationRate()*100)
	}
}

func TestLSTMPathTrains(t *testing.T) {
	// Full LSTM predictors on a short but dense trace: must train and not
	// blow up.
	if testing.Short() {
		t.Skip("LSTM training is slow")
	}
	r := mathx.NewRand(7)
	tr := trace.Poisson(r, 0.8, 420)
	opts := DefaultOptions(7)
	opts.TrainAfter = 100
	st := runSMIless(t, apps.ImageQuery(), tr, 3.0, opts)
	if st.Completed != tr.Len() {
		t.Fatalf("completed %d/%d", st.Completed, tr.Len())
	}
}

func TestNameReflectsAblation(t *testing.T) {
	profiles := apps.ImageQuery().TrueProfiles(3)
	if got := New(hardware.DefaultCatalog(), profiles, 2, liteOptions(0)).Name(); got != "SMIless" {
		t.Errorf("name = %q", got)
	}
	o := liteOptions(0)
	o.DisableDAG = true
	if got := New(hardware.DefaultCatalog(), profiles, 2, o).Name(); got != "SMIless-No-DAG" {
		t.Errorf("ablation name = %q", got)
	}
}
