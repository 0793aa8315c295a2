package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestFig2Shape(t *testing.T) {
	r := Fig2()
	if len(r.Functions) != 3 {
		t.Fatalf("functions = %d, want 3 (HAP, TG, TRS)", len(r.Functions))
	}
	for i, f := range r.Functions {
		// Warm GPU beats warm CPU; cold GPU loses to cold CPU (Fig. 2's
		// central observation).
		if r.WarmGPU[i] >= r.WarmCPU[i] {
			t.Errorf("%s: warm GPU %.3f should beat warm CPU %.3f", f, r.WarmGPU[i], r.WarmCPU[i])
		}
		if r.ColdGPU[i] <= r.ColdCPU[i] {
			t.Errorf("%s: cold GPU %.3f should lose to cold CPU %.3f", f, r.ColdGPU[i], r.ColdCPU[i])
		}
	}
	// Price ratio ~8x (§II-B).
	if r.PriceRatio < 4 || r.PriceRatio > 16 {
		t.Errorf("price ratio %.1f outside the plausible band", r.PriceRatio)
	}
	if s := r.Table().String(); !strings.Contains(s, "TRS") {
		t.Error("table missing TRS row")
	}
}

func TestFig3Shape(t *testing.T) {
	r := Fig3()
	// The co-optimized plan is cheaper than both baselines (the paper
	// reports 37.7% vs Orion and 33% vs IceBreaker).
	if r.OptimalCost >= r.OrionCost {
		t.Errorf("optimal %.6f should beat Orion %.6f", r.OptimalCost, r.OrionCost)
	}
	if r.OptimalCost >= r.IceBreakerCost {
		t.Errorf("optimal %.6f should beat IceBreaker %.6f", r.OptimalCost, r.IceBreakerCost)
	}
	if r.SavingVsOrion < 0.10 {
		t.Errorf("saving vs Orion %.1f%%, want a material saving", r.SavingVsOrion*100)
	}
	if r.OptimalLatency > 6.5 {
		t.Errorf("optimal plan violates the 6.5 s SLA: %.2f", r.OptimalLatency)
	}
}

func TestFig8Smoke(t *testing.T) {
	// Small-horizon smoke run without LSTM; asserts the headline ordering.
	// Two diurnal periods so the idle-heavy phases of the Azure-like
	// trace appear; shorter horizons oversample the busy half.
	p := Fig8Params{
		Horizon: 1300, SLA: 2.0, Seed: 5,
		Systems: []SystemName{SysSMIless, SysGrandSLAm, SysIceBreakr},
		Apps:    []string{"WL2"},
	}
	r := Fig8(p)
	if len(r.Cells) != 3 {
		t.Fatalf("cells = %d, want 3", len(r.Cells))
	}
	sm := r.Get("WL2", SysSMIless)
	gs := r.Get("WL2", SysGrandSLAm)
	ib := r.Get("WL2", SysIceBreakr)
	if sm == nil || gs == nil || ib == nil {
		t.Fatal("missing cells")
	}
	if gs.Stats.TotalCost <= sm.Stats.TotalCost {
		t.Errorf("GrandSLAm %.4f should cost more than SMIless %.4f", gs.Stats.TotalCost, sm.Stats.TotalCost)
	}
	if ib.Stats.TotalCost <= sm.Stats.TotalCost {
		t.Errorf("IceBreaker %.4f should cost more than SMIless %.4f", ib.Stats.TotalCost, sm.Stats.TotalCost)
	}
	if !strings.Contains(r.Table().String(), "SMIless") || !strings.Contains(r.Fig9Table().String(), "reinit") {
		t.Error("tables incomplete")
	}
}

func TestFig10Smoke(t *testing.T) {
	p := Fig10Params{
		Horizon: 300, Seed: 6,
		SLAs:    []float64{2, 4},
		Systems: []SystemName{SysSMIless},
		App:     "WL2",
	}
	r := Fig10(p)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(r.Rows))
	}
	// Looser SLA must not cost (much) more.
	if r.Rows[1].Cost > r.Rows[0].Cost*1.3 {
		t.Errorf("cost at SLA 4 (%.4f) should not exceed cost at SLA 2 (%.4f) by >30%%", r.Rows[1].Cost, r.Rows[0].Cost)
	}
}

func TestFig11Shape(t *testing.T) {
	r := Fig11(Fig11Params{Horizon: 600, Seed: 7})
	// Robust estimates must not violate more than plain-mean estimates.
	if r.ViolationsRobust > r.ViolationsMean {
		t.Errorf("mu+3sigma violations %.1f%% exceed plain-mean %.1f%%", r.ViolationsRobust*100, r.ViolationsMean*100)
	}
	// Fig. 11(b) bounds: every SMAPE < 20%, overall average < 8%, GPU more
	// accurate than CPU.
	if len(r.Functions) != 12 {
		t.Fatalf("functions = %d, want 12", len(r.Functions))
	}
	for i, f := range r.Functions {
		if r.CPUSMAPE[i] > 20 || r.GPUSMAPE[i] > 20 {
			t.Errorf("%s SMAPE cpu=%.1f gpu=%.1f, want < 20", f, r.CPUSMAPE[i], r.GPUSMAPE[i])
		}
	}
	if r.OverallAverageSMAPE > 8 {
		t.Errorf("overall SMAPE %.1f%%, want < 8%%", r.OverallAverageSMAPE)
	}
	if r.AvgGPU >= r.AvgCPUSMAPE {
		t.Errorf("GPU SMAPE %.1f should be below CPU %.1f", r.AvgGPU, r.AvgCPUSMAPE)
	}
}

func TestFig12Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor training is slow")
	}
	r := Fig12(Fig12Params{TrainWindows: 600, TestWindows: 600, Seed: 8})
	if len(r.CountNames) != 4 || len(r.IATNames) != 2 {
		t.Fatalf("predictors missing: %v %v", r.CountNames, r.IATNames)
	}
	// The SMIless classifier (index 0) underestimates least.
	for i := 1; i < len(r.CountNames); i++ {
		if r.CountUnder[0] >= r.CountUnder[i] {
			t.Errorf("SMIless underestimation %.1f%% should be below %s's %.1f%%",
				r.CountUnder[0]*100, r.CountNames[i], r.CountUnder[i]*100)
		}
	}
}

func TestFig13Smoke(t *testing.T) {
	p := Fig13Params{Horizon: 900, SLA: 2.0, Seed: 9, Apps: []string{"WL3"}}
	r := Fig13(p)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (two panels x two variants)", len(r.Rows))
	}
	sm := r.Get("homo", "WL3", SysSMIless)
	homo := r.Get("homo", "WL3", SysHomo)
	if sm == nil || homo == nil {
		t.Fatal("missing homo panel variants")
	}
	// Panel (b): CPU-only violates more under the tight SLA.
	if homo.Viol <= sm.Viol {
		t.Errorf("homo viol %.1f%% should exceed SMIless %.1f%% at the tight SLA", homo.Viol*100, sm.Viol*100)
	}
	// Panel (a): ignoring the DAG must not be cheaper on sparse traffic.
	nd := r.Get("no-dag", "WL3", SysNoDAG)
	smc := r.Get("no-dag", "WL3", SysSMIless)
	if nd == nil || smc == nil {
		t.Fatal("missing no-dag panel variants")
	}
	if nd.Cost < smc.Cost*0.95 {
		t.Errorf("No-DAG cost %.4f should not undercut SMIless %.4f", nd.Cost, smc.Cost)
	}
}

func TestFig14Shape(t *testing.T) {
	r := Fig14(Fig14Params{SLA: 2.0, Seed: 10})
	if r.Stats.Completed == 0 {
		t.Fatal("no requests completed")
	}
	// Pods must scale up during the peak relative to the quiet lead-in.
	var quiet, peak float64
	nq, np := 0, 0
	for _, s := range r.Samples {
		total := float64(s.CPU + s.GPU)
		switch {
		case s.Time > 200 && s.Time <= 240:
			quiet += total
			nq++
		case s.Time > 250 && s.Time <= 262:
			peak += total
			np++
		}
	}
	if nq == 0 || np == 0 {
		t.Fatal("sampling windows empty")
	}
	if peak/float64(np) <= quiet/float64(nq) {
		t.Errorf("peak pods %.1f should exceed quiet pods %.1f", peak/float64(np), quiet/float64(nq))
	}
}

func TestFig15Smoke(t *testing.T) {
	p := Fig15Params{SLA: 2.0, Seed: 11, Systems: []SystemName{SysSMIless, SysGrandSLAm}}
	r := Fig15(p)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Get(SysSMIless) == nil {
		t.Fatal("missing SMIless row")
	}
}

func TestFig16Shape(t *testing.T) {
	r := Fig16(Fig16Params{Lengths: []int{2, 4, 8, 12}, Repeats: 3})
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The paper: ~20 ms at N=12; our budget is generous at 100 ms.
	last := r.Rows[len(r.Rows)-1]
	if last.SMIless > 100*time.Millisecond {
		t.Errorf("search at N=12 took %v, want < 100ms", last.SMIless)
	}
	// Auto-scaler < 0.1 ms per decision (Fig. 16b).
	if r.AutoscalerPerDecision > 100*time.Microsecond {
		t.Errorf("autoscaler decision %v, want < 100µs", r.AutoscalerPerDecision)
	}
	// Exhaustive must be measured (and slower) at N=4.
	for _, row := range r.Rows {
		if row.N == 4 && row.Exhaustive == 0 {
			t.Error("exhaustive skipped at N=4")
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "x", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}}
	s := tab.String()
	if !strings.Contains(s, "== x ==") || !strings.Contains(s, "bb") {
		t.Errorf("table render broken: %q", s)
	}
}

func TestBurstTraceShape(t *testing.T) {
	tr := BurstTrace(12)
	counts := tr.Counts(1)
	// Peak window in the fluctuating segment far exceeds the lead-in mean.
	peak := 0
	for i := 240; i < len(counts) && i < 300; i++ {
		if counts[i] > peak {
			peak = counts[i]
		}
	}
	if peak < 10 {
		t.Errorf("burst peak %d, want >= 10", peak)
	}
}

func TestAppByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown app should panic")
		}
	}()
	appByName("nope")
}

func TestFig8MultiMedians(t *testing.T) {
	p := Fig8Params{
		Horizon: 300, SLA: 2.0, Seed: 30,
		Systems: []SystemName{SysSMIless, SysGrandSLAm},
		Apps:    []string{"WL2"},
	}
	r := Fig8Multi(p, 3)
	if len(r.Runs) != 3 {
		t.Fatalf("runs = %d, want 3", len(r.Runs))
	}
	if r.MedianCost("WL2", SysSMIless) <= 0 {
		t.Error("median cost not positive")
	}
	if v := r.MedianViolation("WL2", SysGrandSLAm); v < 0 || v > 1 {
		t.Errorf("median violation %v out of range", v)
	}
	if !strings.Contains(r.Table().String(), "medians over 3 seeds") {
		t.Error("table title missing")
	}
}

func TestChurnSmokeAndDeterminism(t *testing.T) {
	run := func() *ChurnResult {
		p := DefaultChurnParams(5)
		p.Horizon = 300
		p.Systems = []SystemName{SysSMIless}
		p.NodeCounts = []int{2, 8}
		return Churn(p)
	}
	a := run()
	if len(a.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(a.Cells))
	}
	for _, c := range a.Cells {
		if c.Stats.NodeDownEvents == 0 {
			t.Errorf("nodes=%d: churn schedule produced no detector verdicts", c.Nodes)
		}
		if c.Stats.Completed == 0 {
			t.Errorf("nodes=%d: no completed requests", c.Nodes)
		}
	}
	b := run()
	for i := range a.Cells {
		sa, sb := a.Cells[i].Stats, b.Cells[i].Stats
		if sa.Summary() != sb.Summary() ||
			sa.Forwards != sb.Forwards || sa.Failovers != sb.Failovers ||
			sa.NodeDownSeconds != sb.NodeDownSeconds { //lint:allow floateq determinism check: reruns must be bit-identical
			t.Errorf("churn cell %d not deterministic:\n A: %s\n B: %s", i, sa.Summary(), sb.Summary())
		}
	}
	tab := a.Table()
	if !strings.Contains(tab.Title, "Churn") || len(tab.Rows) != 2 {
		t.Errorf("table = %q with %d rows", tab.Title, len(tab.Rows))
	}
}
