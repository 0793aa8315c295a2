package baselines

import (
	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/forecast"
	"smiless/internal/hardware"
	"smiless/internal/perfmodel"
	"smiless/internal/simulator"
)

// HybridHistogram is an extension baseline beyond the paper's lineup: the
// production keep-alive policy of "Serverless in the Wild" (ATC'20), which
// the paper's related-work section positions against. Each function tracks
// an idle-time histogram; after an invocation the instance stays warm for
// the policy's keep-alive window, and when the histogram supports it, the
// instance unloads first and is pre-warmed back just before the next
// invocation historically lands. Configurations are sized per stage like a
// latency-aware but cold-start-agnostic system: the cheapest config whose
// inference fits the function's share of the SLA.
type HybridHistogram struct {
	Catalog  *hardware.Catalog
	Profiles map[dag.NodeID]*perfmodel.Profile
	SLA      float64

	hist    map[dag.NodeID]*forecast.IdleHistogram
	lastUse map[dag.NodeID]float64
	configs map[dag.NodeID]hardware.Config
}

// NewHybridHistogram builds the driver.
func NewHybridHistogram(cat *hardware.Catalog, profiles map[dag.NodeID]*perfmodel.Profile, sla float64) *HybridHistogram {
	return &HybridHistogram{
		Catalog:  cat,
		Profiles: profiles,
		SLA:      sla,
		hist:     make(map[dag.NodeID]*forecast.IdleHistogram),
		lastUse:  make(map[dag.NodeID]float64),
	}
}

// Name implements simulator.Driver.
func (b *HybridHistogram) Name() string { return "HybridHistogram" }

// Setup implements simulator.Driver.
func (b *HybridHistogram) Setup(sim simulator.ControlPlane) {
	g := sim.App().Graph
	b.configs = make(map[dag.NodeID]hardware.Config, g.Len())
	budget := b.SLA * 0.8 / float64(g.LongestPathLen())
	for _, id := range g.Nodes() {
		prof := b.Profiles[id]
		cfg := b.Catalog.Configs[0]
		found := false
		for _, c := range b.Catalog.Configs {
			if prof.InferenceTime(c, 1) <= budget {
				cfg = c
				found = true
				break
			}
		}
		if !found {
			for _, c := range b.Catalog.Configs {
				if prof.InferenceTime(c, 1) < prof.InferenceTime(cfg, 1) {
					cfg = c
				}
			}
		}
		b.configs[id] = cfg
		b.hist[id] = &forecast.IdleHistogram{}
		sim.SetDirective(id, simulator.Directive{
			Config:    cfg,
			Policy:    coldstart.KeepAlive,
			KeepAlive: b.hist[id].KeepAliveFor(),
			Batch:     2,
			Instances: 8,
		})
	}
}

// OnWindow implements simulator.Driver: feed application-level idle gaps
// into each function's histogram and refresh the warm-window directives.
func (b *HybridHistogram) OnWindow(sim simulator.ControlPlane, now float64) {
	arr := sim.ArrivalTimes()
	if len(arr) == 0 {
		return
	}
	last := arr[len(arr)-1]
	g := sim.App().Graph
	for _, id := range g.Nodes() {
		if prev, ok := b.lastUse[id]; ok && last > prev {
			b.hist[id].Observe(last - prev)
		}
		b.lastUse[id] = last
		h := b.hist[id]
		d := sim.GetDirective(id)
		d.KeepAlive = h.KeepAliveFor()
		if pw := h.PrewarmAfter(); pw > 0 {
			// Unload-then-pre-warm: terminate after the batch, come back
			// shortly before the histogram expects the next invocation.
			d.Policy = coldstart.Prewarm
			d.PrewarmLead = b.Profiles[id].InitTime(d.Config)
			sim.SchedulePrewarm(id, last+pw)
		} else {
			d.Policy = coldstart.KeepAlive
		}
		sim.SetDirective(id, d)
	}
}
