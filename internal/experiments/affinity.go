package experiments

import (
	"fmt"

	"smiless/internal/hardware"
	"smiless/internal/placement"
	"smiless/internal/simulator"
	"smiless/internal/trace"
)

// AffinityParams configures the heterogeneous-placement sweep: the same
// workload runs under bursty and diurnal traffic on a small cluster with
// co-location interference as ground truth, once per placement policy. Only
// the policy varies between cells — trace, cluster, interference model and
// controller are identical — so differences isolate what affinity-aware
// placement buys over the affinity-blind baseline.
type AffinityParams struct {
	// App is the workload (default WL2).
	App string
	// SLA is the E2E bound (default 2 s).
	SLA float64
	// Horizon is the trace length in seconds (default 1200).
	Horizon float64
	// Seed drives trace generation and simulation noise.
	Seed int64
	// Forecaster names the forecaster family behind SMIless' Online
	// Predictor; empty keeps the moving-window estimator.
	Forecaster string
	// Scale multiplies the default interference matrix (default 1).
	Scale float64
	// Nodes and CoresPerNode shape the cluster (defaults 4 and 26: a
	// quarter of the default cluster per node, one GPU each). Small nodes
	// keep co-location pressure — the effect under test — high.
	Nodes        int
	CoresPerNode int
	// Policies are the swept placement policies; nil means the blind
	// first-fit baseline plus affinity packing and interference spreading.
	Policies []simulator.PlacementPolicy
	// Spot, when true, additionally bills every cell against the same
	// seeded spot-price step trace, so the cost column reflects a
	// fluctuating market instead of static list prices.
	Spot bool
}

// DefaultAffinityParams returns the default sweep.
func DefaultAffinityParams(seed int64) AffinityParams {
	return AffinityParams{App: "WL2", SLA: 2.0, Horizon: 1200, Seed: seed}
}

// AffinityCell is one (trace, policy) outcome.
type AffinityCell struct {
	Trace  string
	Policy simulator.PlacementPolicy
	Stats  *simulator.RunStats
}

// AffinityResult aggregates the sweep.
type AffinityResult struct {
	Params AffinityParams
	Cells  []AffinityCell
}

// affinityPolicyName renders a placement policy for tables.
func affinityPolicyName(p simulator.PlacementPolicy) string {
	switch p {
	case simulator.PlaceP2C:
		return "p2c"
	case simulator.PlacePack:
		return "pack"
	case simulator.PlaceSpread:
		return "spread"
	default:
		return "blind"
	}
}

// affinityCluster builds the sweep's cluster: n small identical nodes.
func affinityCluster(n, cores int) hardware.ClusterSpec {
	nodes := make([]hardware.NodeSpec, n)
	for i := range nodes {
		nodes[i] = hardware.NodeSpec{Cores: cores, GPUs: 1}
	}
	return hardware.ClusterSpec{Nodes: nodes}
}

// Affinity runs the placement sweep: for each traffic shape (bursty
// Azure-like and smooth diurnal) every policy sees the identical trace,
// cluster and interference model, so rows are directly comparable and
// deterministic under a fixed seed.
func Affinity(p AffinityParams) *AffinityResult {
	if p.App == "" {
		p.App = "WL2"
	}
	if p.SLA <= 0 {
		p.SLA = 2
	}
	if p.Horizon <= 0 {
		p.Horizon = 1200
	}
	if p.Scale <= 0 {
		p.Scale = 1
	}
	if p.Nodes <= 0 {
		p.Nodes = 4
	}
	if p.CoresPerNode <= 0 {
		p.CoresPerNode = 26
	}
	policies := p.Policies
	if policies == nil {
		policies = []simulator.PlacementPolicy{
			simulator.PlaceFirstFit, simulator.PlacePack, simulator.PlaceSpread,
		}
	}
	model := &placement.Model{Matrix: placement.DefaultMatrix(), Scale: p.Scale}
	var pt *hardware.PriceTrace
	if p.Spot {
		pt = hardware.StepPriceTrace(p.Seed, p.Horizon, 60)
	}
	traces := []struct {
		name string
		tr   *trace.Trace
	}{
		{"bursty", EvalTrace(p.Seed, p.Horizon)},
		{"diurnal", SmoothTrace(p.Seed, p.Horizon)},
	}
	out := &AffinityResult{Params: p}
	for _, tc := range traces {
		for _, pol := range policies {
			st, err := Run(SysSMIless, RunParams{
				App: appByName(p.App), SLA: p.SLA, Seed: p.Seed, Forecaster: p.Forecaster,
				Placement: pol, Interference: model, PriceTrace: pt,
				Cluster: affinityCluster(p.Nodes, p.CoresPerNode),
			}, tc.tr)
			if err != nil {
				panic(err)
			}
			out.Cells = append(out.Cells, AffinityCell{Trace: tc.name, Policy: pol, Stats: st})
		}
	}
	return out
}

// blindCell returns the affinity-blind baseline cell for a trace, or nil.
func (r *AffinityResult) blindCell(trace string) *AffinityCell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Trace == trace && c.Policy == simulator.PlaceFirstFit {
			return c
		}
	}
	return nil
}

// Dominates reports whether, on every swept trace, at least one
// affinity-aware policy beats-or-matches the affinity-blind baseline on one
// axis (SLA attainment or total cost) without losing on the other — i.e.
// the aware frontier weakly dominates the blind point everywhere. This is
// the invariant the CI affinity gate asserts.
func (r *AffinityResult) Dominates() bool {
	traces := map[string]bool{}
	for _, c := range r.Cells {
		traces[c.Trace] = true
	}
	for tr := range traces {
		blind := r.blindCell(tr)
		if blind == nil {
			return false
		}
		blindSLA := 1 - blind.Stats.ViolationRate()
		ok := false
		for _, c := range r.Cells {
			if c.Trace != tr || c.Policy == simulator.PlaceFirstFit {
				continue
			}
			sla := 1 - c.Stats.ViolationRate()
			if sla >= blindSLA && c.Stats.TotalCost <= blind.Stats.TotalCost*1.001 {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return len(traces) > 0
}

// Table renders the sweep: SLA attainment, cost and the interference /
// preemption accounting per (trace, policy). Cells on the per-trace
// (SLA, cost) Pareto frontier are starred — the SPES-style
// cost/performance frontier readout.
func (r *AffinityResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Affinity — placement policy vs. SLA and cost under co-location interference (%s, SLA %.1fs, %d×%dc nodes, scale %.1f)",
			r.Params.App, r.Params.SLA, r.Params.Nodes, r.Params.CoresPerNode, r.Params.Scale),
		Header: []string{"trace", "policy", "SLA attain %", "cost ($)", "frontier",
			"interfered", "interference (s)", "preempted", "p95 (s)"},
	}
	for _, c := range r.Cells {
		frontier := ""
		if r.onFrontier(c) {
			frontier = "*"
		}
		t.Rows = append(t.Rows, []string{
			c.Trace,
			affinityPolicyName(c.Policy),
			fmt.Sprintf("%.2f", (1-c.Stats.ViolationRate())*100),
			fmt.Sprintf("%.4f", c.Stats.TotalCost),
			frontier,
			fmt.Sprintf("%d", c.Stats.InterferedInits+c.Stats.InterferedBatches),
			fmt.Sprintf("%.1f", c.Stats.InterferenceSeconds),
			fmt.Sprintf("%d", c.Stats.PreemptedContainers),
			fmt.Sprintf("%.3f", c.Stats.LatencyPercentile(95)),
		})
	}
	return t
}

// onFrontier reports whether a cell is Pareto-optimal within its trace:
// no other cell of the same trace has both higher-or-equal SLA attainment
// and lower-or-equal cost with at least one strict improvement.
func (r *AffinityResult) onFrontier(c AffinityCell) bool {
	sla := 1 - c.Stats.ViolationRate()
	for _, o := range r.Cells {
		if o.Trace != c.Trace || o.Policy == c.Policy {
			continue
		}
		oSLA := 1 - o.Stats.ViolationRate()
		if oSLA >= sla && o.Stats.TotalCost <= c.Stats.TotalCost &&
			(oSLA > sla || o.Stats.TotalCost < c.Stats.TotalCost) {
			return false
		}
	}
	return true
}
