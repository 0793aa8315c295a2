package baselines

import (
	"sort"

	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/hardware"
	"smiless/internal/perfmodel"
	"smiless/internal/simulator"
)

// Orion sizes each function's configuration under the right-pre-warming
// assumption: initialization always overlaps upstream execution, so its
// sizing model prices a config by inference time alone, I·U, and takes the
// E2E latency as the critical-path sum of inference times. Configurations are chosen greedily
// cheapest-first subject to the SLA — exactly the paper's reading of Orion's
// sizing — and pre-warming is triggered reactively when a request arrives.
// Inter-arrival dynamics are ignored entirely (§II-C2).
type Orion struct {
	Catalog  *hardware.Catalog
	Profiles map[dag.NodeID]*perfmodel.Profile
	SLA      float64

	configs map[dag.NodeID]hardware.Config
}

// NewOrion builds the Orion driver.
func NewOrion(cat *hardware.Catalog, profiles map[dag.NodeID]*perfmodel.Profile, sla float64) *Orion {
	return &Orion{Catalog: cat, Profiles: profiles, SLA: sla}
}

// Name implements simulator.Driver.
func (o *Orion) Name() string { return "Orion" }

// plan selects configurations assuming perfect overlap.
func (o *Orion) plan(g *dag.Graph) map[dag.NodeID]hardware.Config {
	type cand struct {
		cfg   hardware.Config
		cost  float64 // I·U: right pre-warming hides initialization
		infer float64
	}
	candsOf := func(id dag.NodeID) []cand {
		prof := o.Profiles[id]
		out := make([]cand, 0, o.Catalog.Len())
		for _, cfg := range o.Catalog.Configs {
			i := prof.InferenceTime(cfg, 1)
			// Right pre-warming assumes initialization perfectly overlaps
			// upstream execution, so Orion's own sizing model prices a
			// configuration by inference time only — the assumption that
			// makes GPUs look free to warm up (Fig. 3a) and that reality
			// later bills it for.
			out = append(out, cand{cfg: cfg, cost: i * o.Catalog.UnitCost(cfg), infer: i})
		}
		sort.SliceStable(out, func(a, b int) bool { return out[a].cost < out[b].cost })
		return out
	}
	configs := make(map[dag.NodeID]hardware.Config, g.Len())
	fastest := make(map[dag.NodeID]hardware.Config, g.Len())
	for _, id := range g.Nodes() {
		cs := candsOf(id)
		best := cs[0]
		for _, c := range cs[1:] {
			if c.infer < best.infer {
				best = c
			}
		}
		fastest[id] = best.cfg
		configs[id] = cs[0].cfg
	}
	// Greedy repair: upgrade the function whose next-cheaper-faster move
	// buys the most latency per dollar until the critical path fits.
	for criticalPathLatency(g, o.Profiles, configs, 1) > o.SLA {
		type move struct {
			id   dag.NodeID
			cfg  hardware.Config
			gain float64
		}
		best := move{}
		for _, id := range g.Nodes() {
			prof := o.Profiles[id]
			curI := prof.InferenceTime(configs[id], 1)
			curC := curI * o.Catalog.UnitCost(configs[id])
			for _, cfg := range o.Catalog.Configs {
				i := prof.InferenceTime(cfg, 1)
				if i >= curI {
					continue
				}
				c := i * o.Catalog.UnitCost(cfg)
				dCost := c - curC
				if dCost <= 0 {
					dCost = 1e-9 // free upgrade: take it eagerly
				}
				gain := (curI - i) / dCost
				if gain > best.gain {
					best = move{id: id, cfg: cfg, gain: gain}
				}
			}
		}
		if best.id == "" {
			// No faster option anywhere: give every function its fastest.
			for id, cfg := range fastest {
				configs[id] = cfg
			}
			break
		}
		configs[best.id] = best.cfg
	}
	return configs
}

// Setup implements simulator.Driver.
func (o *Orion) Setup(sim simulator.ControlPlane) {
	g := sim.App().Graph
	o.configs = o.plan(g)
	offsets := pathOffsets(g, o.Profiles, o.configs, 1)
	for _, id := range g.Nodes() {
		prof := o.Profiles[id]
		cfg := o.configs[id]
		sim.SetDirective(id, simulator.Directive{
			Config:           cfg,
			Policy:           coldstart.KeepAlive,
			KeepAlive:        PlatformKeepAlive,
			PrewarmLead:      prof.InitTime(cfg),
			PathOffset:       offsets[id],
			PrewarmOnArrival: true,
			Batch:            1,
			Instances:        8,
		})
	}
}

// OnWindow implements simulator.Driver; Orion's sizing is static.
func (o *Orion) OnWindow(simulator.ControlPlane, float64) {}
