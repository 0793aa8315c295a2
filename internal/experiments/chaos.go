package experiments

import (
	"fmt"

	"smiless/internal/faults"
	"smiless/internal/simulator"
)

// ChaosParams configures the failure-rate sweep: each system runs on the
// same workload under increasing fault intensity, measuring how much
// availability and cost each one gives up.
type ChaosParams struct {
	// App is the workload (default WL2).
	App string
	// SLA is the E2E bound (default 2 s).
	SLA float64
	// Horizon is the trace length in seconds (default 1200).
	Horizon float64
	// Seed drives trace generation, simulation noise and fault schedules.
	Seed int64
	// UseLSTM enables SMIless' LSTM predictors.
	UseLSTM bool
	// Systems to evaluate; nil means SMIless plus three baselines.
	Systems []SystemName
	// Rates is the swept base failure rate; each rate r expands to
	// init-crash probability r, exec-crash probability 0.6r and straggler
	// probability r (factor 6). Every non-zero rate also crashes node 0 for
	// 120 s from 40% of the horizon. Nil means {0, 0.02, 0.05, 0.1}.
	Rates []float64
}

// DefaultChaosParams returns the default sweep.
func DefaultChaosParams(seed int64) ChaosParams {
	return ChaosParams{App: "WL2", SLA: 2.0, Horizon: 1200, Seed: seed}
}

// ChaosCell is one (rate, system) outcome.
type ChaosCell struct {
	Rate   float64
	System SystemName
	Stats  *simulator.RunStats
}

// ChaosResult aggregates the sweep.
type ChaosResult struct {
	Params ChaosParams
	Cells  []ChaosCell
}

// planForRate expands one swept base rate into a fault plan. Rate 0 returns
// nil — the clean baseline runs the exact fault-free substrate.
func (p ChaosParams) planForRate(i int, rate float64) *faults.Plan {
	if rate <= 0 {
		return nil
	}
	start := 0.4 * p.Horizon
	return &faults.Plan{
		Default: faults.Rates{
			InitFail:        rate,
			ExecFail:        0.6 * rate,
			Straggler:       rate,
			StragglerFactor: 6,
		},
		// Decorrelate schedules across rates while keeping each rate's
		// schedule fixed under the sweep seed.
		Seed:       p.Seed*1009 + int64(i),
		NodeFaults: []faults.NodeFault{{Node: 0, Kind: faults.NodeCrash, Start: start, End: start + 120}},
	}
}

// Chaos runs the failure-rate sweep: every system sees the identical trace
// and the identical per-rate fault schedule, so rows are directly
// comparable and deterministic under a fixed seed.
func Chaos(p ChaosParams) *ChaosResult {
	if p.App == "" {
		p.App = "WL2"
	}
	if p.SLA <= 0 {
		p.SLA = 2
	}
	if p.Horizon <= 0 {
		p.Horizon = 1200
	}
	systems := p.Systems
	if systems == nil {
		systems = []SystemName{SysSMIless, SysGrandSLAm, SysOrion, SysIceBreakr}
	}
	rates := p.Rates
	if rates == nil {
		rates = []float64{0, 0.02, 0.05, 0.1}
	}
	tr := EvalTrace(p.Seed, p.Horizon)
	out := &ChaosResult{Params: p}
	for i, rate := range rates {
		plan := p.planForRate(i, rate)
		for _, sys := range systems {
			rp := RunParams{
				App: appByName(p.App), SLA: p.SLA, Seed: p.Seed,
				UseLSTM: p.UseLSTM, Faults: plan,
			}
			st := RunSystem(sys, rp, tr)
			out.Cells = append(out.Cells, ChaosCell{Rate: rate, System: sys, Stats: st})
		}
	}
	return out
}

// Table renders the sweep: availability, lost requests, cost and violation
// rate per (rate, system), plus the recovery-machinery counters.
func (r *ChaosResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Chaos — resilience under fault injection (%s, SLA %.1fs, horizon %.0fs)",
			r.Params.App, r.Params.SLA, r.Params.Horizon),
		Header: []string{"fault rate", "system", "avail %", "failed", "cost ($)", "viol %",
			"retries", "hedges", "trips", "evicted"},
	}
	for _, c := range r.Cells {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", c.Rate),
			string(c.System),
			fmt.Sprintf("%.2f", c.Stats.Availability()*100),
			fmt.Sprintf("%d", c.Stats.FailedInvocations),
			fmt.Sprintf("%.4f", c.Stats.TotalCost),
			fmt.Sprintf("%.1f", c.Stats.ViolationRate()*100),
			fmt.Sprintf("%d", c.Stats.Retries),
			fmt.Sprintf("%d/%d", c.Stats.HedgesWon, c.Stats.HedgesLaunched),
			fmt.Sprintf("%d", c.Stats.BreakerTrips),
			fmt.Sprintf("%d", c.Stats.EvictedContainers),
		})
	}
	return t
}
