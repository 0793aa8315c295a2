// Package experiments contains one harness per table/figure of the paper's
// evaluation (§VII). Each Fig* function builds the workload the paper
// describes, runs the systems involved, and returns a typed result whose
// Table method renders the same rows/series the paper reports.
//
// Absolute numbers differ from the paper (the substrate is a simulator with
// synthetic ground truth); the quantities compared, the systems, and the
// expected orderings match. EXPERIMENTS.md records paper-vs-measured for
// every figure.
package experiments

import (
	"fmt"
	"strings"

	"smiless/internal/apps"
	"smiless/internal/baselines"
	"smiless/internal/controller"
	"smiless/internal/dag"
	"smiless/internal/faults"
	"smiless/internal/forecast"
	"smiless/internal/hardware"
	"smiless/internal/perfmodel"
	"smiless/internal/placement"
	"smiless/internal/simulator"
	"smiless/internal/trace"
	"smiless/internal/tracing"
)

// Table is a rendered experiment result: a header plus rows of cells.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// SystemName identifies one evaluated system.
type SystemName string

// The systems of Fig. 8.
const (
	SysSMIless   SystemName = "SMIless"
	SysOrion     SystemName = "Orion"
	SysIceBreakr SystemName = "IceBreaker"
	SysGrandSLAm SystemName = "GrandSLAm"
	SysAquatope  SystemName = "Aquatope"
	SysOPT       SystemName = "OPT"
	SysNoDAG     SystemName = "SMIless-No-DAG"
	SysHomo      SystemName = "SMIless-Homo"
	// SysHistogram is an extension beyond the paper's lineup: the ATC'20
	// hybrid-histogram keep-alive policy.
	SysHistogram SystemName = "HybridHistogram"
)

// AllSystems lists the Fig. 8 lineup in the paper's order.
var AllSystems = []SystemName{SysSMIless, SysGrandSLAm, SysIceBreakr, SysOrion, SysAquatope, SysOPT}

// RunParams configures one (app, system, trace) evaluation.
type RunParams struct {
	App  *apps.Application
	SLA  float64
	Seed int64
	// Forecaster names the forecaster family (internal/forecast registry)
	// behind SMIless variants' Online Predictor; empty trains none and keeps
	// the moving-window estimator. Unknown names fail with a typed
	// *simulator.ConfigError.
	Forecaster string
	// Faults optionally injects failures (crashes, stragglers, node
	// crashes/partitions) into the run; nil evaluates the
	// fault-free substrate.
	Faults *faults.Plan
	// Placement selects the simulator's node-placement policy (default
	// first-fit; PlaceP2C enables locality routing with power-of-two-choices
	// overflow; PlacePack/PlaceSpread are the affinity-aware policies).
	Placement simulator.PlacementPolicy
	// Interference, when non-nil, turns on co-location interference in the
	// simulator and makes SMIless variants plan against the model's expected
	// slowdown. Nil keeps runs byte-identical to the interference-blind
	// build.
	Interference *placement.Model
	// PriceTrace, when non-nil, bills container lifetimes at the trace's
	// spot multiplier and realizes its preemption windows as node
	// withdrawals. Nil bills static prices.
	PriceTrace *hardware.PriceTrace
	// Cluster, when non-empty, overrides the simulator's default cluster.
	Cluster hardware.ClusterSpec
	// Recorder optionally attaches a span recorder to the run so per-phase
	// critical-path attribution and Chrome trace export are available; nil
	// runs untraced (bit-identical to a traced run's statistics).
	Recorder *tracing.Recorder
	// Controller, when non-nil, replaces the derived controller
	// configuration wholesale for SMIless variants (ablation flags are
	// still forced per system, e.g. DisableDAG for SMIless-No-DAG).
	Controller *controller.Options
}

// NewDriver constructs the named system's driver for use outside the
// simulator — notably behind the live serving runtime. OPT is rejected: it
// is an oracle that plans against the full future arrival trace, which a
// live gateway does not have.
func NewDriver(name SystemName, p RunParams) (simulator.Driver, error) {
	if name == SysOPT {
		return nil, fmt.Errorf("experiments: %s needs the full future trace and cannot serve live", SysOPT)
	}
	return buildDriver(name, p, nil)
}

// buildDriver constructs the driver for a system name.
func buildDriver(name SystemName, p RunParams, tr *trace.Trace) (simulator.Driver, error) {
	if p.Forecaster != "" {
		if _, err := forecast.Lookup(p.Forecaster); err != nil {
			return nil, &simulator.ConfigError{Field: "forecaster", Reason: err.Error()}
		}
	}
	cat := hardware.DefaultCatalog()
	profiles := p.App.TrueProfiles(perfmodel.DefaultUncertainty)
	smilessOpts := func() controller.Options {
		if p.Controller != nil {
			return *p.Controller
		}
		o := controller.DefaultOptions(p.Seed)
		o.Forecaster = p.Forecaster
		o.Interference = p.Interference
		return o
	}
	switch name {
	case SysSMIless:
		return controller.New(cat, profiles, p.SLA, smilessOpts()), nil
	case SysNoDAG:
		o := smilessOpts()
		o.DisableDAG = true
		return controller.New(cat, profiles, p.SLA, o), nil
	case SysHomo:
		return controller.New(hardware.CPUOnlyCatalog(), profiles, p.SLA, smilessOpts()), nil
	case SysOrion:
		return baselines.NewOrion(cat, profiles, p.SLA), nil
	case SysIceBreakr:
		return baselines.NewIceBreaker(cat, profiles, p.SLA), nil
	case SysGrandSLAm:
		return baselines.NewGrandSLAm(cat, profiles, p.SLA), nil
	case SysAquatope:
		return baselines.NewAquatope(cat, profiles, p.SLA, p.Seed), nil
	case SysHistogram:
		return baselines.NewHybridHistogram(cat, profiles, p.SLA), nil
	case SysOPT:
		return baselines.NewOPT(cat, profiles, p.SLA, tr.Arrivals), nil
	default:
		return nil, fmt.Errorf("experiments: unknown system %q", name)
	}
}

// WarmupFor returns the measurement warm-up for a trace: requests in the
// first sixth of the horizon (capped at five minutes) are excluded from the
// latency statistics while predictors train and plans converge. Every
// system gets the same treatment, and cost is always charged for the whole
// run.
func WarmupFor(tr *trace.Trace) float64 {
	w := tr.Horizon / 6
	if w > 300 {
		w = 300
	}
	return w
}

// Run evaluates one system on one trace, propagating configuration and
// simulation errors instead of panicking — the entry point behind the
// public smiless.Evaluate.
func Run(name SystemName, p RunParams, tr *trace.Trace) (*simulator.RunStats, error) {
	if tr == nil {
		return nil, fmt.Errorf("experiments: nil trace")
	}
	drv, err := buildDriver(name, p, tr)
	if err != nil {
		return nil, err
	}
	sim, err := simulator.New(simulator.Config{
		App: p.App, SLA: p.SLA, Seed: p.Seed, StatsAfter: WarmupFor(tr),
		Faults: p.Faults, Placement: p.Placement, Cluster: p.Cluster,
		Interference: p.Interference, PriceTrace: p.PriceTrace,
	}, drv)
	if err != nil {
		return nil, err
	}
	if p.Recorder != nil {
		sim.AttachRecorder(p.Recorder)
	}
	return sim.Run(tr)
}

// RunSystem evaluates one system on one trace, panicking on any error; the
// figure harnesses run known-good configurations, so a failure there is a
// bug, not an input problem.
func RunSystem(name SystemName, p RunParams, tr *trace.Trace) *simulator.RunStats {
	st, err := Run(name, p, tr)
	if err != nil {
		panic(err)
	}
	return st
}

// EvalTrace builds the default evaluation workload: an Azure-like mixture
// scaled the way the paper scales its traces (§VII-A). The horizon is in
// seconds; the paper evaluates two hours (7200).
func EvalTrace(seed int64, horizon float64) *trace.Trace {
	r := newRand(seed)
	p := trace.DefaultAzureLike(horizon)
	return trace.AzureLike(r, p)
}

// SmoothTrace is a diurnal-only workload used where the focus is not burst
// handling.
func SmoothTrace(seed int64, horizon float64) *trace.Trace {
	r := newRand(seed)
	return trace.Diurnal(r, 0.25, 0.6, 300, horizon)
}

// AppByName resolves the paper's WL names ("WL1".."WL3" or full names).
// It panics on unknown names.
func AppByName(name string) *apps.Application { return appByName(name) }

// appByName resolves the paper's WL names.
func appByName(name string) *apps.Application {
	switch name {
	case "WL1", "AMBER-Alert":
		return apps.AmberAlert()
	case "WL2", "Image-Query":
		return apps.ImageQuery()
	case "WL3", "Voice-Assistant":
		return apps.VoiceAssistant()
	default:
		panic(fmt.Sprintf("experiments: unknown application %q", name))
	}
}

var _ = dag.NodeID("") // dag types appear in several harness signatures
