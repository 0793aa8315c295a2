package smiless

import (
	"smiless/internal/controller"
	"smiless/internal/core"
	"smiless/internal/faults"
	"smiless/internal/hardware"
	"smiless/internal/placement"
	"smiless/internal/simulator"
	"smiless/internal/tracing"
)

// Observability and fault-injection surface, re-exported so runs configured
// through this package can use them without reaching into internal/.
type (
	// Recorder is the deterministic span recorder: attach one with
	// WithRecorder to get per-invocation span trees, critical-path phase
	// attribution and Chrome trace-event export (DESIGN.md §10).
	Recorder = tracing.Recorder
	// FaultPlan schedules failure injection — container crashes,
	// stragglers, node crashes and partitions — into a run (DESIGN.md §7).
	FaultPlan = faults.Plan
	// FaultRates are per-function failure probabilities for a FaultPlan.
	FaultRates = faults.Rates
	// SearchStats summarizes one Optimize call's evaluation-cache traffic.
	SearchStats = core.SearchStats
	// CacheStats are the evaluation cache's hit/miss counters by level.
	CacheStats = core.CacheStats
)

// NewRecorder returns a span recorder for app's DAG, ready to pass to
// WithRecorder. After the run, use Recorder.WriteChromeTrace (or the
// critical-path accessors) on it.
func NewRecorder(app *Application) *Recorder {
	return tracing.NewRecorder(app.Graph)
}

// EvaluateOptions collects the optional knobs of Evaluate, NewSimulator and
// NewSMIless. The zero value is the default configuration: seed 0,
// moving-window predictors (no LSTM), no tracing, no faults. Construct it
// through functional options:
//
//	st, err := smiless.Evaluate(smiless.SystemSMIless, app, tr, 2.0,
//	    smiless.WithSeed(7),
//	    smiless.WithLSTM(true),
//	    smiless.WithRecorder(rec),
//	)
type EvaluateOptions struct {
	// Seed drives every stochastic component (profiler noise, predictor
	// initialization, fault schedules).
	Seed int64
	// UseLSTM enables the trained predictors in SMIless variants; when false
	// a lightweight moving-window estimator is used throughout.
	UseLSTM bool
	// Forecaster names the forecaster family serving the SMIless Online
	// Predictor (see Forecasters for the registered names); empty keeps the
	// default (the paper's LSTM pair). Unknown names make Evaluate and
	// NewDriver-based paths fail with a typed *ConfigError. Set via
	// WithForecaster, which also enables the trained predictors.
	Forecaster string
	// Recorder, when non-nil, records span trees for every invocation.
	// Statistics are bit-identical with and without a recorder attached.
	Recorder *Recorder
	// Faults, when non-nil, injects the scheduled failures into the run.
	Faults *FaultPlan
	// Window is the decision-window length in seconds for NewSimulator;
	// 0 keeps the paper's one-second default.
	Window float64
	// Controller, when non-nil, overrides the full controller
	// configuration (ablation switches, train/retrain schedule, SLA
	// margin). Set it via WithControllerOptions; later WithSeed / WithLSTM
	// options still override the corresponding fields.
	Controller *ControllerOptions
	// Placement selects the simulator's node-placement policy (default
	// first-fit). Set via WithPlacement.
	Placement PlacementPolicy
	// Interference, when non-nil, turns on co-location interference and
	// makes SMIless plan against the model's expected slowdown. Set via
	// WithInterference.
	Interference *PlacementModel
	// PriceTrace, when non-nil, bills containers at the trace's spot
	// multiplier and realizes its preemption windows. Set via
	// WithPriceTrace.
	PriceTrace *PriceTrace
}

// Option mutates EvaluateOptions; options are applied in order, so the last
// setting of a field wins.
type Option func(*EvaluateOptions)

// WithSeed seeds the run's stochastic components (default 0).
func WithSeed(seed int64) Option {
	return func(o *EvaluateOptions) {
		o.Seed = seed
		if o.Controller != nil {
			o.Controller.Seed = seed
		}
	}
}

// WithLSTM toggles the LSTM predictors in SMIless variants (default off:
// the moving-window estimator).
func WithLSTM(enabled bool) Option {
	return func(o *EvaluateOptions) {
		o.UseLSTM = enabled
		if o.Controller != nil {
			o.Controller.UseLSTM = enabled
		}
	}
}

// WithForecaster selects the forecaster family behind the SMIless Online
// Predictor by registry name — "lstm" (default), "arima", "fip", "gbt",
// "histogram", "naive" or "transformer"; Forecasters() enumerates them.
// Selecting a forecaster implies WithLSTM(true) (a named forecaster is
// pointless with the trained predictors disabled); pass WithLSTM(false)
// afterwards to keep the moving-window estimator anyway. Unknown names
// surface as a typed *ConfigError from Evaluate.
func WithForecaster(name string) Option {
	return func(o *EvaluateOptions) {
		o.Forecaster = name
		o.UseLSTM = true
		if o.Controller != nil {
			o.Controller.Forecaster = name
			o.Controller.UseLSTM = true
		}
	}
}

// WithRecorder attaches a span recorder to the run (see NewRecorder).
func WithRecorder(rec *Recorder) Option {
	return func(o *EvaluateOptions) { o.Recorder = rec }
}

// WithFaults injects a fault plan into the run; nil restores the fault-free
// substrate.
func WithFaults(plan *FaultPlan) Option {
	return func(o *EvaluateOptions) { o.Faults = plan }
}

// WithPlacement selects the node-placement policy: PlaceFirstFit (the
// default), PlaceP2C locality overflow, PlacePack affinity packing or
// PlaceSpread interference spreading.
func WithPlacement(p PlacementPolicy) Option {
	return func(o *EvaluateOptions) { o.Placement = p }
}

// WithInterference turns on co-location interference at the given scale of
// the default matrix (0 or negative = off, byte-identical to the
// interference-blind build; 1 = as tabled). The SMIless controller also
// starts planning against the model's expected slowdown.
func WithInterference(scale float64) Option {
	return func(o *EvaluateOptions) {
		o.Interference = placement.Default(scale)
		if o.Controller != nil {
			o.Controller.Interference = o.Interference
		}
	}
}

// WithPriceTrace bills the run against a spot-price scenario: container
// lifetimes are charged at the in-effect multiplier and the trace's
// preemption windows withdraw nodes mid-run. Nil restores static prices.
func WithPriceTrace(pt *PriceTrace) Option {
	return func(o *EvaluateOptions) { o.PriceTrace = pt }
}

// WithWindow sets the decision-window length in seconds for NewSimulator
// (default 1, the paper's cadence). Negative values are rejected by the
// simulator's configuration validation.
func WithWindow(seconds float64) Option {
	return func(o *EvaluateOptions) { o.Window = seconds }
}

// WithControllerOptions replaces the SMIless controller configuration
// wholesale (ablations, train/retrain schedule, SLA margin). It also adopts
// the configuration's Seed/UseLSTM/Forecaster as the run-level values, so
// apply it before any option that should override one of them.
func WithControllerOptions(co ControllerOptions) Option {
	return func(o *EvaluateOptions) {
		o.Controller = &co
		o.Seed = co.Seed
		o.UseLSTM = co.UseLSTM
		o.Forecaster = co.Forecaster
	}
}

// newEvaluateOptions folds opts over the zero default.
func newEvaluateOptions(opts []Option) EvaluateOptions {
	var o EvaluateOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	return o
}

// controllerOptions resolves the effective controller configuration.
func (o *EvaluateOptions) controllerOptions() ControllerOptions {
	if o.Controller != nil {
		return *o.Controller
	}
	co := controller.DefaultOptions(o.Seed)
	co.UseLSTM = o.UseLSTM
	co.Forecaster = o.Forecaster
	co.Interference = o.Interference
	return co
}

// Heterogeneous-placement surface, re-exported like the fault and tracing
// types above.
type (
	// PlacementPolicy selects how new containers are placed on nodes.
	PlacementPolicy = simulator.PlacementPolicy
	// PlacementModel is the co-location interference model (DESIGN.md §17).
	PlacementModel = placement.Model
	// PriceTrace is a spot-price scenario: a piecewise-constant price
	// multiplier plus preemption windows.
	PriceTrace = hardware.PriceTrace
	// PreemptionWindow withdraws one node for a spot reclaim interval.
	PreemptionWindow = hardware.PreemptionWindow
)

// Placement policies for WithPlacement.
const (
	PlaceFirstFit = simulator.PlaceFirstFit
	PlaceP2C      = simulator.PlaceP2C
	PlacePack     = simulator.PlacePack
	PlaceSpread   = simulator.PlaceSpread
)

// Spot-price scenario generators (internal/hardware).
var (
	// StepPriceTrace is a seeded random-walk multiplier, no preemptions.
	StepPriceTrace = hardware.StepPriceTrace
	// SpikePriceTrace adds price spikes whose peaks preempt nodes.
	SpikePriceTrace = hardware.SpikePriceTrace
	// FlatPriceTrace bills a constant multiplier; FlatPriceTrace(1) is
	// bit-identical to no trace at all.
	FlatPriceTrace = hardware.FlatTrace
)
