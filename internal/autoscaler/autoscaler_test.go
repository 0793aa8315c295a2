package autoscaler

import (
	"errors"
	"testing"
	"testing/quick"

	"smiless/internal/apps"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/perfmodel"
	"smiless/internal/units"
)

func trsProfile() *perfmodel.Profile {
	return apps.Functions["TRS"].TrueProfile(perfmodel.DefaultUncertainty)
}

func TestDecideMeetsBudget(t *testing.T) {
	s := New(hardware.DefaultCatalog())
	plan, err := s.Decide(trsProfile(), 16, 1.0, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Latency > 0.8 {
		t.Errorf("latency %v exceeds budget 0.8", plan.Latency)
	}
	if plan.Batch < 1 || plan.Instances < 1 {
		t.Errorf("degenerate plan %+v", plan)
	}
	if plan.Instances*plan.Batch < 16 {
		t.Errorf("plan capacity %d < 16 invocations", plan.Instances*plan.Batch)
	}
}

func TestDecideBatchMaximal(t *testing.T) {
	// The chosen batch must be the largest feasible one for the chosen
	// config: B+1 (within cap) must violate the budget or exceed G.
	s := New(hardware.DefaultCatalog())
	prof := trsProfile()
	g, is := 32, 1.0
	plan, err := s.Decide(prof, g, 1.0, is)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Batch < s.MaxBatch && plan.Batch < g {
		if prof.InferenceTime(plan.Config, plan.Batch+1) <= is {
			t.Errorf("batch %d not maximal for %v: B+1 still fits budget", plan.Batch, plan.Config)
		}
	}
}

// TestDecideInfeasible: an unreachable budget is ErrInfeasible from both
// solvers, solved and served from the memo alike.
func TestDecideInfeasible(t *testing.T) {
	s := New(hardware.DefaultCatalog())
	for i := 0; i < 2; i++ { // the second round hits the memo
		if _, err := s.Decide(trsProfile(), 4, 1.0, 0.01); !errors.Is(err, ErrInfeasible) {
			t.Errorf("10 ms budget for TRS: err = %v, want ErrInfeasible", err)
		}
		if _, err := s.DecideReactive(trsProfile(), 4, 1.0, 0.01); !errors.Is(err, ErrInfeasible) {
			t.Errorf("10 ms reactive budget for TRS: err = %v, want ErrInfeasible", err)
		}
	}
}

func TestDecideArgErrors(t *testing.T) {
	s := New(hardware.DefaultCatalog())
	if _, err := s.Decide(trsProfile(), 0, 1, 1); err == nil || errors.Is(err, ErrInfeasible) {
		t.Errorf("zero invocations: err = %v, want an argument error", err)
	}
	if _, err := s.Decide(trsProfile(), 1, 1, 0); err == nil || errors.Is(err, ErrInfeasible) {
		t.Errorf("zero budget: err = %v, want an argument error", err)
	}
}

func TestFallbackFastest(t *testing.T) {
	s := New(hardware.DefaultCatalog())
	prof := trsProfile()
	p := s.Fallback(prof, 5, 1.0)
	if p.Instances != 5 || p.Batch != 1 {
		t.Errorf("fallback plan %+v, want 5 instances batch 1", p)
	}
	// Must minimize time-to-first-result from cold: the fallback launches
	// fresh instances, so initialization counts in full.
	cold := prof.InitTime(p.Config) + prof.InferenceTime(p.Config, 1)
	for _, cfg := range s.Catalog.Configs {
		if c := prof.InitTime(cfg) + prof.InferenceTime(cfg, 1); c < cold {
			t.Errorf("config %v serves from cold in %.3fs, beating fallback %v (%.3fs)", cfg, c, p.Config, cold)
		}
	}
	if p.Latency != prof.InferenceTime(p.Config, 1) { //lint:allow floateq Latency must be exactly the profile's warm prediction
		t.Errorf("Latency %v, want warm inference time %v", p.Latency, prof.InferenceTime(p.Config, 1))
	}
}

// TestFallbackCountsColdStart is the regression test for the reactive
// scale-out bug: Fallback ranked configs by warm inference time only, so a
// GPU share that is warm-fastest but pays a long cold start won, even though
// every instance the fallback launches IS a cold start. With a hand-built
// profile where the GPU config infers in 0.1 s after 8 s of initialization
// and the CPU config infers in 0.5 s after 0.4 s, the fallback must lean CPU
// (§V-B2, Fig. 14b).
func TestFallbackCountsColdStart(t *testing.T) {
	cpu := hardware.Config{Kind: hardware.CPU, Cores: 4}
	gpu := hardware.Config{Kind: hardware.GPU, GPUShare: 50}
	cat := &hardware.Catalog{
		Configs: []hardware.Config{gpu, cpu},
		Pricing: hardware.Pricing{CPUPerCoreHour: 0.04, GPUPerHour: 0.9},
	}
	prof := &perfmodel.Profile{
		Function: "synthetic",
		// 2/4 cores + 0 => 0.5 s warm on the 4-core config.
		CPUInf: perfmodel.InferenceModel{Kind: hardware.CPU, A: 2},
		// 5/50 share + 0 => 0.1 s warm on the 50% GPU share.
		GPUInf:  perfmodel.InferenceModel{Kind: hardware.GPU, A: 5},
		CPUInit: perfmodel.InitModel{Kind: hardware.CPU, Mu: units.Seconds(0.4), N: 0},
		GPUInit: perfmodel.InitModel{Kind: hardware.GPU, Mu: units.Seconds(8), N: 0},
	}
	s := New(cat)
	p := s.Fallback(prof, 3, 1.0)
	if p.Config != cpu {
		t.Fatalf("fallback chose %v (cold-serves in %.2fs); want %v (cold-serves in %.2fs)",
			p.Config, prof.InitTime(p.Config)+prof.InferenceTime(p.Config, 1),
			cpu, prof.InitTime(cpu)+prof.InferenceTime(cpu, 1))
	}
	if p.Latency != prof.InferenceTime(cpu, 1) { //lint:allow floateq Latency must be exactly the profile's warm prediction
		t.Errorf("Latency %v, want chosen config's warm inference %v", p.Latency, prof.InferenceTime(cpu, 1))
	}
}

func TestDecideOrFallback(t *testing.T) {
	s := New(hardware.DefaultCatalog())
	if _, ok := s.DecideOrFallback(trsProfile(), 4, 1, 0.01); ok {
		t.Error("infeasible budget should report fallback")
	}
	if _, ok := s.DecideOrFallback(trsProfile(), 4, 1, 2.0); !ok {
		t.Error("generous budget should not fall back")
	}
}

func TestBatchingBeatsScaleOut(t *testing.T) {
	// GPUs process batches efficiently: for a burst of 32 with a modest
	// budget, batching must be cheaper than 32 unbatched instances of the
	// same config.
	s := New(hardware.DefaultCatalog())
	prof := trsProfile()
	g, it, is := 32, 1.0, 1.0
	plan, err := s.Decide(prof, g, it, is)
	if err != nil {
		t.Fatal(err)
	}
	unbatched := float64(g) * it * s.Catalog.UnitCost(plan.Config)
	if plan.CostRate >= unbatched {
		t.Errorf("batched cost %v >= unbatched cost %v", plan.CostRate, unbatched)
	}
	if plan.Batch < 2 {
		t.Errorf("expected batching for a 32-invocation burst, got B=%d", plan.Batch)
	}
}

func TestLargerBurstNeverCheaper(t *testing.T) {
	// Property: window cost is non-decreasing in the invocation count.
	s := New(hardware.DefaultCatalog())
	prof := apps.Functions["IR"].TrueProfile(perfmodel.DefaultUncertainty)
	f := func(seed int64) bool {
		r := mathx.NewRand(seed)
		g := 1 + r.Intn(60)
		is := 0.3 + r.Float64()*2
		p1, ok1 := s.DecideOrFallback(prof, g, 1.0, is)
		p2, ok2 := s.DecideOrFallback(prof, g+8, 1.0, is)
		if ok1 != ok2 {
			return true // feasibility flip; costs not comparable
		}
		return p2.CostRate >= p1.CostRate-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCapacityCoversAllInvocations(t *testing.T) {
	// Property: Instances × Batch >= G always.
	s := New(hardware.DefaultCatalog())
	prof := apps.Functions["QA"].TrueProfile(perfmodel.DefaultUncertainty)
	f := func(seed int64) bool {
		r := mathx.NewRand(seed)
		g := 1 + r.Intn(100)
		is := 0.2 + r.Float64()*3
		p, _ := s.DecideOrFallback(prof, g, 1.0, is)
		return p.Instances*p.Batch >= g
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMaxBatchRespected(t *testing.T) {
	s := New(hardware.DefaultCatalog())
	s.MaxBatch = 4
	plan, err := s.Decide(trsProfile(), 64, 1.0, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Batch > 4 {
		t.Errorf("batch %d exceeds cap 4", plan.Batch)
	}
}

func TestGPUWinsForBursts(t *testing.T) {
	// Fig. 14b: under bursts the share of GPU rises because GPUs batch
	// efficiently. For a heavy model and a large burst with a tight budget,
	// the scaler should pick a GPU config.
	s := New(hardware.DefaultCatalog())
	plan, err := s.Decide(trsProfile(), 32, 1.0, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Config.Kind != hardware.GPU {
		t.Errorf("burst plan uses %v, want GPU", plan.Config)
	}
}
