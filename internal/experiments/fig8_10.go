package experiments

import (
	"fmt"

	"smiless/internal/forecast"
	"smiless/internal/simulator"
)

// Fig8Params configures the end-to-end comparison.
type Fig8Params struct {
	// Horizon is the trace length in seconds (paper: 7200 — two hours of
	// scaled Azure traffic).
	Horizon float64
	// SLA is the E2E bound (paper default: 2 s).
	SLA float64
	// Seed drives trace generation and simulation noise.
	Seed int64
	// Forecaster names the forecaster family behind SMIless' Online
	// Predictor; empty keeps the moving-window estimator.
	Forecaster string
	// Systems to evaluate; nil means the full Fig. 8 lineup.
	Systems []SystemName
	// Apps to evaluate; nil means the three paper workloads.
	Apps []string
}

// DefaultFig8Params returns a faithful but tractable configuration.
func DefaultFig8Params(seed int64) Fig8Params {
	return Fig8Params{Horizon: 3600, SLA: 2.0, Seed: seed, Forecaster: forecast.Default}
}

// Fig8Cell is the outcome of one (application, system) run.
type Fig8Cell struct {
	App    string
	System SystemName
	Stats  *simulator.RunStats
}

// Fig8Result aggregates the comparison; it also carries everything Fig. 9
// reports (CPU:GPU ratio, reinit fraction), since the paper derives both
// figures from the same runs.
type Fig8Result struct {
	Params Fig8Params
	Cells  []Fig8Cell
}

// Fig8 runs the full end-to-end comparison of Fig. 8.
func Fig8(p Fig8Params) *Fig8Result {
	if p.Horizon <= 0 {
		p.Horizon = 3600
	}
	if p.SLA <= 0 {
		p.SLA = 2
	}
	systems := p.Systems
	if systems == nil {
		systems = AllSystems
	}
	appNames := p.Apps
	if appNames == nil {
		appNames = []string{"WL1", "WL2", "WL3"}
	}
	out := &Fig8Result{Params: p}
	for ai, name := range appNames {
		tr := EvalTrace(p.Seed+int64(ai)*101, p.Horizon)
		for _, sys := range systems {
			rp := RunParams{App: appByName(name), SLA: p.SLA, Seed: p.Seed, Forecaster: p.Forecaster}
			st := RunSystem(sys, rp, tr)
			out.Cells = append(out.Cells, Fig8Cell{App: name, System: sys, Stats: st})
		}
	}
	return out
}

// Get returns the cell for (app, system), or nil.
func (r *Fig8Result) Get(app string, sys SystemName) *Fig8Cell {
	for i := range r.Cells {
		if r.Cells[i].App == app && r.Cells[i].System == sys {
			return &r.Cells[i]
		}
	}
	return nil
}

// Table renders Fig. 8(a) (cost) and 8(b) (latency distribution) jointly.
func (r *Fig8Result) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Fig. 8 — E2E comparison (SLA %.1fs, horizon %.0fs)", r.Params.SLA, r.Params.Horizon),
		Header: []string{"app", "system", "cost ($)", "cost/SMIless", "viol %", "p50 (s)", "p95 (s)", "p99 (s)"},
	}
	for _, c := range r.Cells {
		base := r.Get(c.App, SysSMIless)
		rel := "-"
		if base != nil && base.Stats.TotalCost > 0 {
			rel = fmt.Sprintf("%.2fx", c.Stats.TotalCost/base.Stats.TotalCost)
		}
		t.Rows = append(t.Rows, []string{
			c.App, string(c.System),
			fmt.Sprintf("%.4f", c.Stats.TotalCost),
			rel,
			fmt.Sprintf("%.1f", c.Stats.ViolationRate()*100),
			fmt.Sprintf("%.2f", c.Stats.LatencyPercentile(50)),
			fmt.Sprintf("%.2f", c.Stats.LatencyPercentile(95)),
			fmt.Sprintf("%.2f", c.Stats.LatencyPercentile(99)),
		})
	}
	return t
}

// Fig9Table renders Fig. 9 from the same runs: (a) the CPU:GPU usage ratio
// and (b) the container re-initialization fraction per system.
func (r *Fig8Result) Fig9Table() *Table {
	t := &Table{
		Title:  "Fig. 9 — hardware usage and cold-start behaviour",
		Header: []string{"app", "system", "CPU:GPU (billed s)", "reinit/request"},
	}
	for _, c := range r.Cells {
		ratio := "inf"
		if v := c.Stats.CPUGPURatio(); v < 1e6 {
			ratio = fmt.Sprintf("%.2f", v)
		}
		t.Rows = append(t.Rows, []string{
			c.App, string(c.System), ratio,
			fmt.Sprintf("%.2f", c.Stats.ReinitFraction()),
		})
	}
	return t
}

// Fig10Params configures the SLA sweep.
type Fig10Params struct {
	Horizon    float64
	Seed       int64
	Forecaster string
	// SLAs to sweep (paper: 1..6 s).
	SLAs []float64
	// App is the workload (paper sweeps all; default WL2).
	App     string
	Systems []SystemName
}

// Fig10Row is one (SLA, system) outcome.
type Fig10Row struct {
	SLA    float64
	System SystemName
	Cost   float64
	Viol   float64
}

// Fig10Result is the SLA sensitivity sweep.
type Fig10Result struct {
	Params Fig10Params
	Rows   []Fig10Row
}

// Fig10 sweeps the SLA setting as in Fig. 10.
func Fig10(p Fig10Params) *Fig10Result {
	if p.Horizon <= 0 {
		p.Horizon = 3600
	}
	if len(p.SLAs) == 0 {
		p.SLAs = []float64{1, 2, 3, 4, 5, 6}
	}
	if p.App == "" {
		p.App = "WL2"
	}
	systems := p.Systems
	if systems == nil {
		systems = AllSystems
	}
	tr := EvalTrace(p.Seed, p.Horizon)
	out := &Fig10Result{Params: p}
	for _, sla := range p.SLAs {
		for _, sys := range systems {
			rp := RunParams{App: appByName(p.App), SLA: sla, Seed: p.Seed, Forecaster: p.Forecaster}
			st := RunSystem(sys, rp, tr)
			out.Rows = append(out.Rows, Fig10Row{
				SLA: sla, System: sys,
				Cost: st.TotalCost, Viol: st.ViolationRate(),
			})
		}
	}
	return out
}

// Table renders the sweep.
func (r *Fig10Result) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Fig. 10 — SLA sensitivity (%s)", r.Params.App),
		Header: []string{"SLA (s)", "system", "cost ($)", "viol %"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", row.SLA), string(row.System),
			fmt.Sprintf("%.4f", row.Cost),
			fmt.Sprintf("%.1f", row.Viol*100),
		})
	}
	return t
}
