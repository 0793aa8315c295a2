package experiments

import (
	"fmt"

	"smiless/internal/mathx"
	"smiless/internal/simulator"
	"smiless/internal/trace"
)

// Fig13Params configures the co-optimization ablation.
type Fig13Params struct {
	Horizon    float64
	SLA        float64
	Seed       int64
	Forecaster string
	Apps       []string
}

// Fig13Row is one (app, variant) outcome within a panel.
type Fig13Row struct {
	Panel   string // "no-dag" (cost) or "homo" (violations)
	App     string
	Variant SystemName
	Cost    float64
	Viol    float64
}

// Fig13Result reproduces the ablation of Fig. 13 with one panel per claim:
//
//   - Panel (a), SMIless-No-DAG: on sparse traffic, where adaptive
//     pre-warming does the work, ignoring the DAG and warming every
//     function at arrival time pays for idle downstream containers
//     (the paper reports +39% cost).
//   - Panel (b), SMIless-Homo: under a tight SLA, a CPU-only catalog
//     cannot reach the latency floor and violates (up to 22% in the
//     paper).
type Fig13Result struct {
	Params Fig13Params
	Rows   []Fig13Row
}

// Fig13 runs both ablation panels.
func Fig13(p Fig13Params) *Fig13Result {
	if p.Horizon <= 0 {
		p.Horizon = 1800
	}
	if p.SLA <= 0 {
		p.SLA = 2
	}
	if p.Apps == nil {
		p.Apps = []string{"WL1", "WL2", "WL3"}
	}
	out := &Fig13Result{Params: p}
	for ai, name := range p.Apps {
		// Panel (a): sparse traffic (one request every ~30 s on average)
		// puts every function in the terminate-and-pre-warm regime, where
		// DAG-position-aware warm-up timing is what saves money.
		sparse := trace.Poisson(newRand(p.Seed+int64(ai)*131), 0.03, p.Horizon)
		for _, sys := range []SystemName{SysSMIless, SysNoDAG} {
			rp := RunParams{App: appByName(name), SLA: p.SLA, Seed: p.Seed, Forecaster: p.Forecaster}
			st := RunSystem(sys, rp, sparse)
			out.Rows = append(out.Rows, Fig13Row{
				Panel: "no-dag", App: name, Variant: sys,
				Cost: st.TotalCost, Viol: st.ViolationRate(),
			})
		}
		// Panel (b): the Azure-like mixture under a tight SLA below the
		// CPU-only latency floor.
		tr := EvalTrace(p.Seed+int64(ai)*131, p.Horizon)
		tight := p.SLA * 0.3
		for _, sys := range []SystemName{SysSMIless, SysHomo} {
			rp := RunParams{App: appByName(name), SLA: tight, Seed: p.Seed, Forecaster: p.Forecaster}
			st := RunSystem(sys, rp, tr)
			out.Rows = append(out.Rows, Fig13Row{
				Panel: "homo", App: name, Variant: sys,
				Cost: st.TotalCost, Viol: st.ViolationRate(),
			})
		}
	}
	return out
}

// Get returns the row for (panel, app, variant).
func (r *Fig13Result) Get(panel, app string, v SystemName) *Fig13Row {
	for i := range r.Rows {
		if r.Rows[i].Panel == panel && r.Rows[i].App == app && r.Rows[i].Variant == v {
			return &r.Rows[i]
		}
	}
	return nil
}

// Table renders both panels.
func (r *Fig13Result) Table() *Table {
	t := &Table{
		Title:  "Fig. 13 — co-optimization ablations",
		Header: []string{"panel", "app", "variant", "cost ($)", "cost/SMIless", "viol %"},
	}
	for _, row := range r.Rows {
		base := r.Get(row.Panel, row.App, SysSMIless)
		rel := "-"
		if base != nil && base.Cost > 0 {
			rel = fmt.Sprintf("%.2fx", row.Cost/base.Cost)
		}
		t.Rows = append(t.Rows, []string{
			row.Panel, row.App, string(row.Variant),
			fmt.Sprintf("%.4f", row.Cost), rel,
			fmt.Sprintf("%.1f", row.Viol*100),
		})
	}
	return t
}

// BurstTrace builds the Fig. 14/15 workload: a 60-second window with widely
// fluctuating arrivals — a quiet lead-in, a ramp, a sharp peak and decay —
// preceded by warm-up traffic so predictors have history.
func BurstTrace(seed int64) *trace.Trace {
	r := newRand(seed)
	warmup := trace.Poisson(r, 0.5, 240)
	var burst trace.Trace
	burst.Horizon = 300
	// Ramp profile over [240, 300): rates per second.
	profile := []float64{
		1, 1, 2, 2, 3, 4, 5, 7, 9, 12, // ramp
		16, 20, 24, 26, 28, 28, 26, 22, 18, 14, // peak
		10, 8, 6, 5, 4, 3, 3, 2, 2, 1, // decay
		1, 1, 2, 3, 5, 8, 12, 16, 18, 16, // second surge
		12, 8, 5, 3, 2, 1, 1, 1, 1, 1,
		1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
	}
	for i, rate := range profile {
		base := 240 + float64(i)
		n := mathx.Poisson(r, rate)
		for j := 0; j < n; j++ {
			burst.Arrivals = append(burst.Arrivals, base+r.Float64())
		}
	}
	return trace.Merge(warmup, &burst)
}

// Fig14Params configures the burst-adaptation study.
type Fig14Params struct {
	SLA        float64
	Seed       int64
	Forecaster string
	App        string
}

// Fig14Result reproduces Fig. 14: pod counts tracking invocations, and the
// CPU:GPU pod ratio rising with load.
type Fig14Result struct {
	Params  Fig14Params
	Samples []simulator.PodSample
	Stats   *simulator.RunStats
}

// Fig14 runs SMIless on the burst window and returns the pod time series.
func Fig14(p Fig14Params) *Fig14Result {
	if p.SLA <= 0 {
		p.SLA = 2
	}
	if p.App == "" {
		p.App = "WL2"
	}
	tr := BurstTrace(p.Seed)
	rp := RunParams{App: appByName(p.App), SLA: p.SLA, Seed: p.Seed, Forecaster: p.Forecaster}
	st := RunSystem(SysSMIless, rp, tr)
	return &Fig14Result{Params: p, Samples: st.PodSamples, Stats: st}
}

// Table renders the pod/arrival series over the fluctuating window.
func (r *Fig14Result) Table() *Table {
	t := &Table{
		Title:  "Fig. 14 — adaptation to bursty arrivals (SMIless)",
		Header: []string{"t (s)", "arrivals", "CPU pods", "GPU pods", "CPU:GPU"},
	}
	for _, s := range r.Samples {
		if s.Time < 238 {
			continue // show the fluctuating window
		}
		ratio := "inf"
		if s.GPU > 0 {
			ratio = fmt.Sprintf("%.1f", float64(s.CPU)/float64(s.GPU))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", s.Time),
			fmt.Sprintf("%d", s.Arrivals),
			fmt.Sprintf("%d", s.CPU),
			fmt.Sprintf("%d", s.GPU),
			ratio,
		})
	}
	return t
}

// Fig15Params configures the burst comparison across systems.
type Fig15Params struct {
	SLA        float64
	Seed       int64
	Forecaster string
	App        string
	Systems    []SystemName
}

// Fig15Row is one system's burst outcome.
type Fig15Row struct {
	System SystemName
	Cost   float64
	Viol   float64
}

// Fig15Result reproduces Fig. 15: auto-scaling performance under bursts.
type Fig15Result struct {
	Params Fig15Params
	Rows   []Fig15Row
}

// Fig15 evaluates every system on the burst window.
func Fig15(p Fig15Params) *Fig15Result {
	if p.SLA <= 0 {
		p.SLA = 2
	}
	if p.App == "" {
		p.App = "WL2"
	}
	systems := p.Systems
	if systems == nil {
		systems = AllSystems
	}
	tr := BurstTrace(p.Seed)
	out := &Fig15Result{Params: p}
	for _, sys := range systems {
		rp := RunParams{App: appByName(p.App), SLA: p.SLA, Seed: p.Seed, Forecaster: p.Forecaster}
		st := RunSystem(sys, rp, tr)
		out.Rows = append(out.Rows, Fig15Row{System: sys, Cost: st.TotalCost, Viol: st.ViolationRate()})
	}
	return out
}

// Get returns the row for one system.
func (r *Fig15Result) Get(sys SystemName) *Fig15Row {
	for i := range r.Rows {
		if r.Rows[i].System == sys {
			return &r.Rows[i]
		}
	}
	return nil
}

// Table renders the burst comparison.
func (r *Fig15Result) Table() *Table {
	t := &Table{
		Title:  "Fig. 15 — auto-scaling under bursts",
		Header: []string{"system", "cost ($)", "cost/SMIless", "viol %"},
	}
	base := r.Get(SysSMIless)
	for _, row := range r.Rows {
		rel := "-"
		if base != nil && base.Cost > 0 {
			rel = fmt.Sprintf("%.2fx", row.Cost/base.Cost)
		}
		t.Rows = append(t.Rows, []string{
			string(row.System), fmt.Sprintf("%.4f", row.Cost), rel,
			fmt.Sprintf("%.1f", row.Viol*100),
		})
	}
	return t
}
