// Package smiless is a reproduction of "SMIless: Serving DAG-based
// Inference with Dynamic Invocations under Serverless Computing" (SC 2024):
// a serverless ML-inference serving system that co-optimizes heterogeneous
// hardware configuration and cold-start management for DAG applications.
//
// The package is the public façade over the internal implementation:
//
//   - Build or pick an application DAG (AmberAlert, ImageQuery,
//     VoiceAssistant, or NewApplication for custom workflows).
//   - Profile its functions (Profile / TrueProfiles).
//   - Co-optimize configuration and cold-start policy (Optimize).
//   - Evaluate end-to-end on the simulated serverless cluster (Evaluate),
//     against the paper's baselines (Orion, IceBreaker, GrandSLAm,
//     Aquatope) or the OPT oracle.
//
// See the examples/ directory for runnable walkthroughs and DESIGN.md for
// the system inventory.
package smiless

import (
	"fmt"

	"smiless/internal/apps"
	"smiless/internal/coldstart"
	"smiless/internal/controller"
	"smiless/internal/core"
	"smiless/internal/dag"
	"smiless/internal/experiments"
	"smiless/internal/forecast"
	"smiless/internal/hardware"
	"smiless/internal/metrics"
	"smiless/internal/perfmodel"
	"smiless/internal/profiler"
	"smiless/internal/simulator"
	"smiless/internal/trace"
)

// Core re-exported types. These aliases are the supported public surface;
// their methods are documented in the internal packages.
type (
	// Application is a DAG workload: a validated graph whose nodes map to
	// inference functions with ground-truth performance models.
	Application = apps.Application
	// FunctionSpec is the synthetic ground truth for one function.
	FunctionSpec = apps.FunctionSpec
	// Graph is the workflow DAG.
	Graph = dag.Graph
	// NodeID names one function in a Graph.
	NodeID = dag.NodeID
	// Config is one hardware configuration (CPU cores or GPU share).
	Config = hardware.Config
	// Catalog is the ordered configuration space with pricing.
	Catalog = hardware.Catalog
	// Pricing holds unit costs.
	Pricing = hardware.Pricing
	// FnProfile is a fitted per-function performance profile.
	FnProfile = perfmodel.Profile
	// Plan is a joint (configuration, cold-start policy) assignment.
	Plan = coldstart.Plan
	// Decision is one function's cold-start policy outcome.
	Decision = coldstart.Decision
	// Trace is an invocation arrival trace.
	Trace = trace.Trace
	// RunStats aggregates a simulation run's outcomes.
	RunStats = simulator.RunStats
	// Driver is a pluggable serving system under evaluation.
	Driver = simulator.Driver
	// Directive is the per-function policy a Driver installs.
	Directive = simulator.Directive
	// Simulator is the discrete-event serverless cluster.
	Simulator = simulator.Simulator
	// OptimizeRequest parameterizes co-optimization.
	OptimizeRequest = core.Request
	// OptimizeResult is the optimizer output.
	OptimizeResult = core.Result
	// ControllerOptions configures the SMIless controller.
	ControllerOptions = controller.Options
	// ConfigError is the typed validation error returned for invalid run
	// configuration (bad simulator or serving config, unknown forecaster
	// names, ...).
	ConfigError = simulator.ConfigError
	// Forecaster is the pluggable forecasting interface behind the SMIless
	// Online Predictor (internal/forecast): Fit/Predict/Update/Clone over
	// an observation series. Select a registered family with
	// WithForecaster, or inject a custom one through
	// ControllerOptions.NewForecaster.
	Forecaster = forecast.Forecaster
	// ForecastConfig parameterizes one forecaster instance (seed, role,
	// training budget).
	ForecastConfig = forecast.Config
	// ForecastReport is the prediction-quality summary (per-horizon
	// MAE/sMAPE, upper-bound violation rate, refit counts) surfaced in
	// RunStats for forecaster-backed runs.
	ForecastReport = forecast.QualityReport
)

// Hardware kinds.
const (
	CPU = hardware.CPU
	GPU = hardware.GPU
)

// Cold-start policies.
const (
	Prewarm      = coldstart.Prewarm
	KeepAlive    = coldstart.KeepAlive
	NoMitigation = coldstart.NoMitigation
	AlwaysOn     = coldstart.AlwaysOn
)

// The paper's three evaluation applications (Fig. 7).
var (
	AmberAlert     = apps.AmberAlert
	ImageQuery     = apps.ImageQuery
	VoiceAssistant = apps.VoiceAssistant
	Pipeline       = apps.Pipeline
)

// Functions is the Table I function inventory keyed by short name.
var Functions = apps.Functions

// DefaultCatalog returns the paper's configuration space: CPU {1..16}
// cores plus GPU {10..100}% MPS shares at AWS-derived prices.
func DefaultCatalog() *Catalog { return hardware.DefaultCatalog() }

// CPUOnlyCatalog returns the CPU-only space (the SMIless-Homo ablation).
func CPUOnlyCatalog() *Catalog { return hardware.CPUOnlyCatalog() }

// NewApplication builds a custom application from functions (node ID →
// Table I short name) and directed edges. The DAG must have exactly one
// entry function.
func NewApplication(name string, functions map[NodeID]string, edges [][2]NodeID) (*Application, error) {
	g := dag.New()
	specs := make(map[NodeID]*FunctionSpec, len(functions))
	for id, fnName := range functions {
		spec, ok := apps.Functions[fnName]
		if !ok {
			return nil, fmt.Errorf("smiless: unknown function %q (want a Table I short name)", fnName)
		}
		if err := g.AddNode(id, spec.Model); err != nil {
			return nil, err
		}
		specs[id] = spec
	}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Application{Name: name, Graph: g, Specs: specs}, nil
}

// ProfileApplication runs the Offline Profiler (§IV-A) over every function
// of app: 10 cold-start measurements and the 25-CPU/50-GPU inference grid
// per function, fitted to the Eq. (1)/(2) latency laws with μ+3σ
// initialization estimates.
func ProfileApplication(app *Application, seed int64) (map[NodeID]*FnProfile, error) {
	p := profiler.New(metrics.NewStore(), profiler.DefaultOptions(seed))
	return p.ProfileApplication(app)
}

// Optimize runs the Strategy Optimizer (§V-C): top-1 path search with DAG
// decomposition and cost refinement over the catalog, memoizing plan
// evaluations. OptimizeResult.Search reports the cache hit/miss counters.
// Each call builds a fresh Optimizer, so the Result, which a long-lived
// core.Optimizer would reuse on its next call, is the caller's own.
func Optimize(cat *Catalog, req OptimizeRequest) (OptimizeResult, error) {
	return core.New(cat).Optimize(req)
}

// NewSMIless builds the full SMIless controller as a simulator Driver:
// Online Predictor → Strategy Optimizer → Auto-scaler. Options: WithSeed,
// WithForecaster, or WithControllerOptions for full control over
// ablations and schedules.
func NewSMIless(cat *Catalog, profiles map[NodeID]*FnProfile, sla float64, opts ...Option) Driver {
	o := newEvaluateOptions(opts)
	return controller.New(cat, profiles, sla, o.controllerOptions())
}

// DefaultControllerOptions returns the full SMIless configuration with the
// paper's LSTM forecasters.
func DefaultControllerOptions(seed int64) ControllerOptions {
	return controller.DefaultOptions(seed)
}

// Forecasters lists the registered forecaster family names accepted by
// WithForecaster, sorted.
func Forecasters() []string { return forecast.Names() }

// NewSimulator prepares the discrete-event serverless cluster for one
// (application, driver) evaluation at the given SLA. It returns a
// *simulator.ConfigError when the configuration is invalid (nil app or
// driver, negative SLA). Options: WithSeed, WithFaults, WithRecorder,
// WithWindow.
func NewSimulator(app *Application, driver Driver, sla float64, opts ...Option) (*Simulator, error) {
	o := newEvaluateOptions(opts)
	sim, err := simulator.New(simulator.Config{
		App: app, SLA: sla, Seed: o.Seed, Faults: o.Faults, Window: o.Window,
		Placement: o.Placement, Interference: o.Interference, PriceTrace: o.PriceTrace,
	}, driver)
	if err != nil {
		return nil, err
	}
	if o.Recorder != nil {
		sim.AttachRecorder(o.Recorder)
	}
	return sim, nil
}

// SystemName selects one of the built-in serving systems.
type SystemName = experiments.SystemName

// Built-in systems for Evaluate.
const (
	SystemSMIless    = experiments.SysSMIless
	SystemOrion      = experiments.SysOrion
	SystemIceBreaker = experiments.SysIceBreakr
	SystemGrandSLAm  = experiments.SysGrandSLAm
	SystemAquatope   = experiments.SysAquatope
	SystemOPT        = experiments.SysOPT
)

// Evaluate runs a named system on (app, trace, SLA) and returns the run
// statistics. The defaults are seed 0, moving-window predictors, no
// tracing, no faults; override with WithSeed, WithForecaster, WithRecorder,
// WithFaults, WithControllerOptions. Unknown systems and
// invalid inputs return an error rather than panicking.
func Evaluate(system SystemName, app *Application, tr *Trace, sla float64, opts ...Option) (*RunStats, error) {
	if app == nil {
		return nil, fmt.Errorf("smiless: nil application")
	}
	if tr == nil {
		return nil, fmt.Errorf("smiless: nil trace")
	}
	if sla <= 0 {
		return nil, fmt.Errorf("smiless: non-positive SLA %v", sla)
	}
	o := newEvaluateOptions(opts)
	p := experiments.RunParams{
		App: app, SLA: sla, Seed: o.Seed, Forecaster: o.Forecaster,
		Faults: o.Faults, Recorder: o.Recorder,
		Controller: o.Controller,
		Placement:  o.Placement, Interference: o.Interference, PriceTrace: o.PriceTrace,
	}
	return experiments.Run(system, p, tr)
}

// Workload generators (see internal/trace for the full set).
var (
	// PoissonTrace generates steady traffic at rate req/s.
	PoissonTrace = trace.Poisson
	// DiurnalTrace generates periodically modulated traffic.
	DiurnalTrace = trace.Diurnal
	// AzureLikeTrace generates the paper-style mixed workload.
	AzureLikeTrace = trace.AzureLike
	// DefaultAzureLike returns the default mixture parameters.
	DefaultAzureLike = trace.DefaultAzureLike
)
