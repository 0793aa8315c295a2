// Benchmarks regenerating the paper's tables and figures: one testing.B
// target per figure, plus ablation benches for the design choices DESIGN.md
// calls out. Run with
//
//	go test -bench=. -benchmem
//
// Each per-figure bench executes the corresponding experiment harness at a
// reduced-but-faithful scale; cmd/experiments regenerates the full-scale
// outputs.
package smiless_test

import (
	"fmt"
	"testing"

	"smiless/internal/apps"
	"smiless/internal/autoscaler"
	"smiless/internal/core"
	"smiless/internal/dag"
	"smiless/internal/experiments"
	"smiless/internal/hardware"
	"smiless/internal/perfmodel"
)

// skipIfShort keeps `go test -short ./...` (and the -race CI lane) free of
// benchmark setup cost when benches are not requested.
func skipIfShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("skipping benchmark in -short mode")
	}
}

func BenchmarkFig2HardwareLatency(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2()
		if len(r.Functions) != 3 {
			b.Fatal("unexpected Fig2 shape")
		}
	}
}

func BenchmarkFig3MotivatingExample(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3()
		if r.OptimalCost >= r.OrionCost {
			b.Fatal("optimal plan not cheaper than Orion")
		}
	}
}

func BenchmarkFig8E2EComparison(b *testing.B) {
	skipIfShort(b)
	p := experiments.Fig8Params{
		Horizon: 600, SLA: 2.0, Seed: 3, UseLSTM: false,
		Apps:    []string{"WL2"},
		Systems: []experiments.SystemName{experiments.SysSMIless, experiments.SysGrandSLAm, experiments.SysOPT},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8(p)
		if len(r.Cells) != 3 {
			b.Fatal("unexpected Fig8 shape")
		}
	}
}

func BenchmarkFig9HardwareUsage(b *testing.B) {
	skipIfShort(b)
	p := experiments.Fig8Params{
		Horizon: 400, SLA: 2.0, Seed: 4, UseLSTM: false,
		Apps:    []string{"WL2"},
		Systems: []experiments.SystemName{experiments.SysSMIless, experiments.SysIceBreakr},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8(p)
		if r.Fig9Table() == nil {
			b.Fatal("missing Fig9 table")
		}
	}
}

func BenchmarkFig10SLASweep(b *testing.B) {
	skipIfShort(b)
	p := experiments.Fig10Params{
		Horizon: 300, Seed: 5, UseLSTM: false,
		SLAs:    []float64{2, 4},
		Systems: []experiments.SystemName{experiments.SysSMIless},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := experiments.Fig10(p); len(r.Rows) != 2 {
			b.Fatal("unexpected Fig10 shape")
		}
	}
}

func BenchmarkFig11Profiling(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		r := experiments.Fig11(experiments.Fig11Params{Horizon: 300, Seed: 6})
		if r.OverallAverageSMAPE > 8 {
			b.Fatalf("SMAPE %v above the paper's 8%% bound", r.OverallAverageSMAPE)
		}
	}
}

func BenchmarkFig12Predictors(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		r := experiments.Fig12(experiments.Fig12Params{TrainWindows: 300, TestWindows: 300, Seed: 7})
		if len(r.CountNames) != 4 {
			b.Fatal("unexpected Fig12 shape")
		}
	}
}

func BenchmarkFig13Ablations(b *testing.B) {
	skipIfShort(b)
	p := experiments.Fig13Params{Horizon: 300, SLA: 2.0, Seed: 8, UseLSTM: false, Apps: []string{"WL2"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := experiments.Fig13(p); len(r.Rows) != 4 {
			b.Fatal("unexpected Fig13 shape")
		}
	}
}

func BenchmarkFig14BurstAdaptation(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		r := experiments.Fig14(experiments.Fig14Params{SLA: 2.0, Seed: 9, UseLSTM: false})
		if r.Stats.Completed == 0 {
			b.Fatal("no completions")
		}
	}
}

func BenchmarkFig15BurstComparison(b *testing.B) {
	skipIfShort(b)
	p := experiments.Fig15Params{
		SLA: 2.0, Seed: 10, UseLSTM: false,
		Systems: []experiments.SystemName{experiments.SysSMIless, experiments.SysGrandSLAm},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := experiments.Fig15(p); len(r.Rows) != 2 {
			b.Fatal("unexpected Fig15 shape")
		}
	}
}

// BenchmarkFig16SearchOverhead measures the Strategy Optimizer itself at
// the paper's largest chain length — the direct Fig. 16(a) quantity.
func BenchmarkFig16SearchOverhead(b *testing.B) {
	skipIfShort(b)
	app := apps.Pipeline(12)
	profiles := app.TrueProfiles(perfmodel.DefaultUncertainty)
	opt := core.New(hardware.DefaultCatalog())
	opt.Cache = nil // every iteration must pay the full search
	req := core.Request{Graph: app.Graph, Profiles: profiles, SLA: 2.0, IT: 10, Batch: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Optimize(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig16AutoscalerDecision measures one Eq. (7)/(8) solve — the
// Fig. 16(b) quantity (paper: < 0.1 ms).
func BenchmarkFig16AutoscalerDecision(b *testing.B) {
	skipIfShort(b)
	scaler := autoscaler.New(hardware.DefaultCatalog())
	prof := apps.Functions["TRS"].TrueProfile(perfmodel.DefaultUncertainty)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scaler.DecideOrFallback(prof, 16+i%16, 1.0, 0.8)
	}
}

// --- Ablation benches (DESIGN.md §6) ------------------------------------

// BenchmarkAblationPrewarmPolicies compares the closed-form per-invocation
// cost of adaptive pre-warming vs always-keep-alive vs no mitigation.
func BenchmarkAblationPrewarmPolicies(b *testing.B) {
	skipIfShort(b)
	prof := apps.Functions["IR"].TrueProfile(perfmodel.DefaultUncertainty)
	cfg := hardware.Config{Kind: hardware.CPU, Cores: 4}
	t := prof.InitTime(cfg)
	inf := prof.InferenceTime(cfg, 1)
	unit := hardware.DefaultPricing.UnitCost(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := 5 + float64(i%100)
		best, costs := costTriple(t, inf, it, unit)
		if best < 0 || len(costs) != 3 {
			b.Fatal("bad cost triple")
		}
	}
}

func costTriple(t, inf, it, unit float64) (int, [3]float64) {
	var costs [3]float64
	// prewarm, keep-alive, cold each invocation
	costs[0] = (t + inf) * unit
	if it > inf {
		costs[1] = it * unit
	} else {
		costs[1] = inf * unit
	}
	costs[2] = (t + inf) * unit
	best := 0
	for i, c := range costs {
		if c < costs[best] {
			best = i
		}
	}
	return best, costs
}

// BenchmarkAblationDecompose compares whole-DAG search via decomposition
// against per-path sequential optimization.
func BenchmarkAblationDecompose(b *testing.B) {
	skipIfShort(b)
	app := apps.VoiceAssistant()
	profiles := app.TrueProfiles(perfmodel.DefaultUncertainty)
	opt := core.New(hardware.DefaultCatalog())
	opt.Cache = nil // every iteration must pay the full search
	req := core.Request{Graph: app.Graph, Profiles: profiles, SLA: 2.0, IT: 15, Batch: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := opt.Optimize(req)
		if err != nil || !res.Feasible {
			b.Fatal("optimize failed")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw discrete-event throughput: one
// hour of moderate traffic through the full DAG machinery.
func BenchmarkSimulatorThroughput(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		tr := experiments.SmoothTrace(int64(i), 600)
		st := experiments.RunSystem(experiments.SysGrandSLAm, experiments.RunParams{
			App: apps.ImageQuery(), SLA: 2.0, Seed: int64(i),
		}, tr)
		if st.Completed != tr.Len() {
			b.Fatal("requests lost")
		}
	}
}

// BenchmarkOptimizer times the same co-optimization problem in two modes
// per workload: sequential (no cache: the controller's configuration, every
// iteration pays the full search on a warm workspace) and cached (the
// memoized evaluation cache, warm after the first iteration). cmd/benchjson
// derives per-app cached/sequential speedup ratios from the `mode=`
// sub-bench names into BENCH_optimizer.json (`make bench-opt`, or the CI
// bench job's artifact).
func BenchmarkOptimizer(b *testing.B) {
	skipIfShort(b)
	workloads := []struct {
		name string
		app  *apps.Application
		it   float64
	}{
		{"ImageQuery", apps.ImageQuery(), 15},
		{"VoiceAssistant", apps.VoiceAssistant(), 15},
		{"Pipeline12", apps.Pipeline(12), 10},
		// FanOut8x4 is the wide case: 8 balanced branches of depth 4, so
		// the search visits many short paths rather than one dominant one.
		{"FanOut8x4", fanOutApp(8, 4), 15},
	}
	modes := []struct {
		name  string
		setup func() *core.Optimizer
	}{
		{"sequential", func() *core.Optimizer {
			o := core.New(hardware.DefaultCatalog())
			o.Cache = nil
			return o
		}},
		{"cached", func() *core.Optimizer { return core.New(hardware.DefaultCatalog()) }},
	}
	for _, wl := range workloads {
		profiles := wl.app.TrueProfiles(perfmodel.DefaultUncertainty)
		req := core.Request{Graph: wl.app.Graph, Profiles: profiles, SLA: 2.0, IT: wl.it, Batch: 1}
		for _, m := range modes {
			b.Run("app="+wl.name+"/mode="+m.name, func(b *testing.B) {
				opt := m.setup()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := opt.Optimize(req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// fanOutApp builds a wide synthetic workload: one OD entry fanning out into
// `branches` chains of `depth` Table I functions.
func fanOutApp(branches, depth int) *apps.Application {
	g := dag.New()
	specs := map[dag.NodeID]*apps.FunctionSpec{}
	names := []string{"IR", "FR", "HAP", "DB", "NER", "TM", "TRS", "TG"}
	root := dag.NodeID("entry")
	g.MustAddNode(root, apps.Functions["OD"].Model)
	specs[root] = apps.Functions["OD"]
	for br := 0; br < branches; br++ {
		prev := root
		for d := 0; d < depth; d++ {
			id := dag.NodeID(fmt.Sprintf("b%dd%d", br, d))
			fn := apps.Functions[names[(br+d)%len(names)]]
			g.MustAddNode(id, fn.Model)
			specs[id] = fn
			g.MustAddEdge(prev, id)
			prev = id
		}
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return &apps.Application{Name: fmt.Sprintf("FanOut-%dx%d", branches, depth), Graph: g, Specs: specs}
}

// BenchmarkOptimizerTopK contrasts top-1 with a wider beam.
func BenchmarkOptimizerTopK(b *testing.B) {
	skipIfShort(b)
	app := apps.Pipeline(8)
	profiles := app.TrueProfiles(perfmodel.DefaultUncertainty)
	for _, k := range []int{1, 3} {
		b.Run(map[int]string{1: "top1", 3: "top3"}[k], func(b *testing.B) {
			opt := core.New(hardware.DefaultCatalog())
			opt.Cache = nil // every iteration must pay the full search
			opt.TopK = k
			req := core.Request{Graph: app.Graph, Profiles: profiles, SLA: 2.0, IT: 10, Batch: 1}
			for i := 0; i < b.N; i++ {
				if _, err := opt.Optimize(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
