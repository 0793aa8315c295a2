package baselines

import (
	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/forecast"
	"smiless/internal/hardware"
	"smiless/internal/perfmodel"
	"smiless/internal/simulator"
)

// IceBreaker manages every function independently: a Fourier-based
// predictor (FIP) forecasts per-window invocations; functions with expected
// traffic are kept warm on the hardware with the best speedup-to-cost
// ratio. Because it never looks at the DAG it cannot overlap initialization
// with upstream execution, and because the heavy models have large GPU
// speedups it parks most functions on long-lived GPU instances — the
// behaviour Fig. 9(a) attributes to it.
type IceBreaker struct {
	Catalog  *hardware.Catalog
	Profiles map[dag.NodeID]*perfmodel.Profile
	SLA      float64

	fip     forecast.Forecaster
	counts  []forecast.Observation // the run's window counts, as handed to fip
	configs map[dag.NodeID]hardware.Config
	// quietWindows counts consecutive windows without arrivals, governing
	// the keep-alive horizon.
	quietWindows int
}

// NewIceBreaker builds the IceBreaker driver.
func NewIceBreaker(cat *hardware.Catalog, profiles map[dag.NodeID]*perfmodel.Profile, sla float64) *IceBreaker {
	return &IceBreaker{Catalog: cat, Profiles: profiles, SLA: sla, fip: forecast.MustNew("fip", forecast.Config{})}
}

// Name implements simulator.Driver.
func (b *IceBreaker) Name() string { return "IceBreaker" }

// chooseConfig picks the hardware with the best speedup-to-cost ratio for
// one function, independent of the others: speedup relative to the 1-core
// CPU divided by the unit-cost ratio.
func (b *IceBreaker) chooseConfig(id dag.NodeID) hardware.Config {
	prof := b.Profiles[id]
	base := hardware.Config{Kind: hardware.CPU, Cores: 1}
	baseLat := prof.InferenceTime(base, 1)
	baseCost := b.Catalog.UnitCost(base)
	best := base
	bestRatio := 1.0
	for _, cfg := range b.Catalog.Configs {
		speedup := baseLat / prof.InferenceTime(cfg, 1)
		costRatio := b.Catalog.UnitCost(cfg) / baseCost
		ratio := speedup / costRatio
		if ratio > bestRatio {
			bestRatio = ratio
			best = cfg
		}
	}
	// A function that still cannot meet its per-stage share of the SLA is
	// bumped to its fastest option (IceBreaker is SLA-aware per function).
	stageBudget := b.SLA / float64(len(b.Profiles))
	if prof.InferenceTime(best, 1) > stageBudget {
		for _, cfg := range b.Catalog.Configs {
			if prof.InferenceTime(cfg, 1) < prof.InferenceTime(best, 1) {
				best = cfg
			}
		}
	}
	return best
}

// Setup implements simulator.Driver.
func (b *IceBreaker) Setup(sim simulator.ControlPlane) {
	g := sim.App().Graph
	b.counts = b.counts[:0]
	b.configs = make(map[dag.NodeID]hardware.Config, g.Len())
	for _, id := range g.Nodes() {
		cfg := b.chooseConfig(id)
		b.configs[id] = cfg
		sim.SetDirective(id, simulator.Directive{
			Config:    cfg,
			Policy:    coldstart.KeepAlive,
			KeepAlive: PlatformKeepAlive,
			Batch:     1,
			Instances: 8,
		})
	}
}

// OnWindow implements simulator.Driver: forecast the next window with FIP;
// when traffic is expected, warm every function simultaneously (no DAG
// offsets) and stretch keep-alives.
func (b *IceBreaker) OnWindow(sim simulator.ControlPlane, now float64) {
	counts := sim.CountsHistory()
	pred := 0.0
	if len(counts) >= 8 {
		// FIP is training-free: fitting only installs the history.
		for _, c := range counts[len(b.counts):] {
			b.counts = append(b.counts, forecast.Observation{Value: float64(c)})
		}
		_ = b.fip.Fit(b.counts) // cannot fail on eight or more windows
		pred = b.fip.Predict(1)[0]
	}
	recentlyActive := len(counts) > 0 && counts[len(counts)-1] > 0
	if pred >= 0.5 || recentlyActive {
		for _, id := range sim.App().Graph.Nodes() {
			// Warm everything for the start of the next window — the
			// DAG-unaware simultaneous warm-up of §VII-C3.
			sim.SchedulePrewarm(id, now+sim.Window())
			d := sim.GetDirective(id)
			d.KeepAlive = PlatformKeepAlive * 2 // predicted-busy horizon
			sim.SetDirective(id, d)
		}
	}
}
