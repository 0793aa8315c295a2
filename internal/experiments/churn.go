package experiments

import (
	"fmt"

	"smiless/internal/faults"
	"smiless/internal/hardware"
	"smiless/internal/simulator"
)

// ChurnParams configures the node-churn sweep: the same workload runs on
// clusters of increasing node count under a rolling schedule of node crashes
// and network partitions, with locality/p2c placement and the gossip failure
// detector active. The sweep measures how SLA attainment degrades (or holds)
// as the blast radius of a single node shrinks.
type ChurnParams struct {
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
	// Systems to evaluate; nil means SMIless plus GrandSLAm.
	Systems []SystemName
	// NodeCounts is the swept cluster size; nil means {2, 4, 8, 16}.
	NodeCounts []int
	// CrashEvery and CrashDown shape the rolling crash schedule: starting
	// at 0.15×Horizon, a node crashes every CrashEvery seconds (rotating
	// through the cluster) and restarts CrashDown seconds later. Defaults
	// 150 and 45.
	CrashEvery float64
	CrashDown  float64
	// PartitionEvery and PartitionFor shape the partition schedule,
	// interleaved with the crashes on different nodes. Defaults 240 and 30.
	PartitionEvery float64
	PartitionFor   float64
}

// DefaultChurnParams returns the default sweep.
func DefaultChurnParams(seed int64) ChurnParams {
	return ChurnParams{App: "WL2", SLA: 2.0, Horizon: 1200, Seed: seed}
}

// ChurnCell is one (node count, system) outcome.
type ChurnCell struct {
	Nodes  int
	System SystemName
	Stats  *simulator.RunStats
}

// ChurnResult aggregates the sweep.
type ChurnResult struct {
	Params ChurnParams
	Cells  []ChurnCell
}

// churnPlan builds the rolling crash+partition schedule for one cluster
// size. Crashes rotate node 0, 1, 2, … while partitions rotate from the top
// end of the cluster, so the two fault kinds land on different nodes except
// on the smallest clusters — where overlapping faults are exactly the stress
// the sweep wants.
func (p ChurnParams) churnPlan(nodes int) *faults.Plan {
	plan := &faults.Plan{Seed: p.Seed*2027 + int64(nodes)}
	start := 0.15 * p.Horizon
	for i := 0; start+float64(i)*p.CrashEvery+p.CrashDown < p.Horizon; i++ {
		at := start + float64(i)*p.CrashEvery
		plan.NodeFaults = append(plan.NodeFaults, faults.NodeFault{
			Node: i % nodes, Kind: faults.NodeCrash, Start: at, End: at + p.CrashDown,
		})
	}
	for i := 0; start+float64(i)*p.PartitionEvery+p.PartitionFor < p.Horizon; i++ {
		at := start + 0.5*p.CrashEvery + float64(i)*p.PartitionEvery
		plan.NodeFaults = append(plan.NodeFaults, faults.NodeFault{
			Node: (nodes - 1 - i%nodes + nodes) % nodes, Kind: faults.NodePartition,
			Start: at, End: at + p.PartitionFor,
		})
	}
	return plan
}

// churnCluster sizes a cluster of n identical nodes, keeping total capacity
// roughly constant across the sweep so node count — not aggregate cores — is
// the variable under test.
func churnCluster(n int) hardware.ClusterSpec {
	total := 832 // 8 × 104, the default cluster's core budget
	cores := total / n
	if cores < 8 {
		cores = 8
	}
	nodes := make([]hardware.NodeSpec, n)
	for i := range nodes {
		nodes[i] = hardware.NodeSpec{Cores: cores, GPUs: 1}
	}
	return hardware.ClusterSpec{Nodes: nodes}
}

// Churn runs the node-count sweep: every system sees the identical trace and
// the identical per-size churn schedule under locality/p2c placement, so
// rows are directly comparable and deterministic under a fixed seed.
func Churn(p ChurnParams) *ChurnResult {
	if p.App == "" {
		p.App = "WL2"
	}
	if p.SLA <= 0 {
		p.SLA = 2
	}
	if p.Horizon <= 0 {
		p.Horizon = 1200
	}
	if p.CrashEvery <= 0 {
		p.CrashEvery = 150
	}
	if p.CrashDown <= 0 {
		p.CrashDown = 45
	}
	if p.PartitionEvery <= 0 {
		p.PartitionEvery = 240
	}
	if p.PartitionFor <= 0 {
		p.PartitionFor = 30
	}
	systems := p.Systems
	if systems == nil {
		systems = []SystemName{SysSMIless, SysGrandSLAm}
	}
	counts := p.NodeCounts
	if counts == nil {
		counts = []int{2, 4, 8, 16}
	}
	tr := EvalTrace(p.Seed, p.Horizon)
	out := &ChurnResult{Params: p}
	for _, n := range counts {
		plan := p.churnPlan(n)
		for _, sys := range systems {
			drv, err := buildDriver(sys, RunParams{
				App: appByName(p.App), SLA: p.SLA, Seed: p.Seed, Forecaster: p.Forecaster,
			}, tr)
			if err != nil {
				panic(err)
			}
			sim, err := simulator.New(simulator.Config{
				App: appByName(p.App), Cluster: churnCluster(n),
				Placement: simulator.PlaceP2C,
				SLA:       p.SLA, Seed: p.Seed, StatsAfter: WarmupFor(tr),
				Faults: plan,
			}, drv)
			if err != nil {
				panic(err)
			}
			st, err := sim.Run(tr)
			if err != nil {
				panic(err)
			}
			out.Cells = append(out.Cells, ChurnCell{Nodes: n, System: sys, Stats: st})
		}
	}
	return out
}

// Table renders the sweep: SLA attainment, availability and the failover
// machinery's work per (node count, system).
func (r *ChurnResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Churn — SLA attainment vs. node count under crash/partition churn (%s, SLA %.1fs, horizon %.0fs)",
			r.Params.App, r.Params.SLA, r.Params.Horizon),
		Header: []string{"nodes", "system", "SLA attain %", "avail %", "failed",
			"forwards", "failovers", "node-down", "down (s)", "evicted", "cost ($)"},
	}
	for _, c := range r.Cells {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", c.Nodes),
			string(c.System),
			fmt.Sprintf("%.2f", (1-c.Stats.ViolationRate())*100),
			fmt.Sprintf("%.2f", c.Stats.Availability()*100),
			fmt.Sprintf("%d", c.Stats.FailedInvocations),
			fmt.Sprintf("%d", c.Stats.Forwards),
			fmt.Sprintf("%d", c.Stats.Failovers),
			fmt.Sprintf("%d", c.Stats.NodeDownEvents),
			fmt.Sprintf("%.1f", c.Stats.NodeDownSeconds),
			fmt.Sprintf("%d", c.Stats.EvictedContainers),
			fmt.Sprintf("%.4f", c.Stats.TotalCost),
		})
	}
	return t
}
