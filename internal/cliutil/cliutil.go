// Package cliutil factors the flag surface shared by the smiless command
// line tools (cmd/smiless-sim, cmd/smiless-serve, cmd/loadgen): workload
// selection, seeding, application lookup and run-artifact outputs. Shared
// flags keep the same name, default and help text in every binary, and
// invalid values produce errors instead of silently falling back.
package cliutil

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"smiless/internal/apps"
	"smiless/internal/experiments"
	"smiless/internal/forecast"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/metrics"
	"smiless/internal/placement"
	"smiless/internal/simulator"
	"smiless/internal/trace"
	"smiless/internal/tracing"
)

// TraceFlags is the shared workload-selection flag set.
type TraceFlags struct {
	Workload *string
	Rate     *float64
	Horizon  *float64
}

// AddTraceFlags registers -workload, -rate and -horizon on fs with the
// shared defaults.
func AddTraceFlags(fs *flag.FlagSet) *TraceFlags {
	return &TraceFlags{
		Workload: fs.String("workload", "azure", "workload: azure, diurnal, poisson, bursty, const"),
		Rate:     fs.Float64("rate", 0.2, "mean rate for poisson/diurnal traces (req/s)"),
		Horizon:  fs.Float64("horizon", 1800, "trace horizon in seconds"),
	}
}

// Build materializes the selected workload trace, or an error for an
// unknown kind or invalid parameters.
func (tf *TraceFlags) Build(seed int64) (*trace.Trace, error) {
	if *tf.Horizon <= 0 {
		return nil, fmt.Errorf("-horizon must be positive, got %v", *tf.Horizon)
	}
	if *tf.Rate <= 0 {
		return nil, fmt.Errorf("-rate must be positive, got %v", *tf.Rate)
	}
	r := mathx.NewRand(seed)
	switch *tf.Workload {
	case "azure":
		return trace.AzureLike(r, trace.DefaultAzureLike(*tf.Horizon)), nil
	case "diurnal":
		return trace.Diurnal(r, *tf.Rate, 0.8, 300, *tf.Horizon), nil
	case "poisson":
		return trace.Poisson(r, *tf.Rate, *tf.Horizon), nil
	case "bursty":
		return experiments.BurstTrace(seed), nil
	case "const":
		return ConstTrace(*tf.Rate, *tf.Horizon), nil
	default:
		return nil, fmt.Errorf("unknown -workload %q (want azure, diurnal, poisson, bursty or const)", *tf.Workload)
	}
}

// ConstTrace builds a deterministic constant-rate trace: exactly
// round(rate*horizon) arrivals evenly spaced at 1/rate seconds, starting at
// t=0. It is the load-harness calibration workload — at a fixed offered
// rate the pacer's send-lag distribution isolates client-side scheduling
// error from arrival-process burstiness, which Poisson traces conflate.
func ConstTrace(rate, horizon float64) *trace.Trace {
	n := int(rate*horizon + 0.5)
	arrivals := make([]float64, n)
	for i := range arrivals {
		arrivals[i] = float64(i) / rate
	}
	return &trace.Trace{Horizon: horizon, Arrivals: arrivals}
}

// PlacementFlags is the shared heterogeneous-placement flag set: the
// node-placement policy, the co-location interference scale and the
// spot-price scenario. All three default to off, which keeps runs
// byte-identical to a build without the placement subsystem.
type PlacementFlags struct {
	Affinity     *string
	Interference *float64
	PriceTrace   *string
}

// AddPlacementFlags registers -affinity, -interference and -price-trace on
// fs with the shared defaults.
func AddPlacementFlags(fs *flag.FlagSet) *PlacementFlags {
	return &PlacementFlags{
		Affinity:     fs.String("affinity", "", "node-placement policy: blind (first-fit), p2c, pack (affinity packing) or spread (interference spreading); empty = blind"),
		Interference: fs.Float64("interference", 0, "co-location interference scale: 0 = off, 1 = default matrix, >1 amplified"),
		PriceTrace:   fs.String("price-trace", "", "spot-price scenario: step (random-walk multiplier) or spike (price spikes with preemptions); empty = static prices"),
	}
}

// Policy resolves the -affinity value to a placement policy.
func (pf *PlacementFlags) Policy() (simulator.PlacementPolicy, error) {
	switch *pf.Affinity {
	case "", "blind":
		return simulator.PlaceFirstFit, nil
	case "p2c":
		return simulator.PlaceP2C, nil
	case "pack":
		return simulator.PlacePack, nil
	case "spread":
		return simulator.PlaceSpread, nil
	default:
		return simulator.PlaceFirstFit,
			fmt.Errorf("unknown -affinity %q (want blind, p2c, pack or spread)", *pf.Affinity)
	}
}

// Model resolves the -interference value to an interference model (nil when
// the scale is zero, keeping the run byte-identical to interference-off).
func (pf *PlacementFlags) Model() *placement.Model {
	return placement.Default(*pf.Interference)
}

// Trace builds the -price-trace scenario for the given seed, horizon and
// cluster size (spike preemptions rotate over nodes). Empty means static
// prices (nil trace).
func (pf *PlacementFlags) Trace(seed int64, horizon float64, nodes int) (*hardware.PriceTrace, error) {
	switch *pf.PriceTrace {
	case "":
		return nil, nil
	case "step":
		return hardware.StepPriceTrace(seed, horizon, 60), nil
	case "spike":
		return hardware.SpikePriceTrace(seed, horizon, nodes), nil
	default:
		return nil, fmt.Errorf("unknown -price-trace %q (want step or spike)", *pf.PriceTrace)
	}
}

// AddSeedFlag registers the shared -seed flag.
func AddSeedFlag(fs *flag.FlagSet) *int64 {
	return fs.Int64("seed", 1, "random seed")
}

// AddForecasterFlag registers the shared -forecaster flag: the forecaster
// family behind the SMIless Online Predictor. Empty trains none and keeps
// the moving-window estimator.
func AddForecasterFlag(fs *flag.FlagSet) *string {
	return fs.String("forecaster", "",
		fmt.Sprintf("forecaster family for SMIless predictors (one of %s; %q is the paper's; empty = moving-window estimator)",
			strings.Join(forecast.Names(), ", "), forecast.Default))
}

// ValidateForecaster checks a -forecaster value against the registry; the
// empty name is always valid (it selects the moving-window estimator).
func ValidateForecaster(name string) error {
	if name == "" {
		return nil
	}
	_, err := forecast.Lookup(name)
	return err
}

// App resolves an application by name (WL1, WL2, WL3, PIPE3, ...),
// returning an error instead of panicking on unknown names.
func App(name string) (out *apps.Application, err error) {
	defer func() {
		if recover() != nil {
			out, err = nil, fmt.Errorf("unknown application %q (want WL1, WL2 or WL3)", name)
		}
	}()
	return experiments.AppByName(name), nil
}

// OutputFlags is the shared run-artifact output flag set.
type OutputFlags struct {
	TraceOut   *string
	JSONOut    *string
	MetricsOut *string
}

// AddOutputFlags registers -trace, -json and -metrics on fs with the shared
// defaults.
func AddOutputFlags(fs *flag.FlagSet) *OutputFlags {
	return &OutputFlags{
		TraceOut:   fs.String("trace", "", "write a Chrome trace-event JSON of the run to this file (load in Perfetto or chrome://tracing)"),
		JSONOut:    fs.String("json", "", "also write a JSON run report to this file"),
		MetricsOut: fs.String("metrics", "", "also write run counters in Prometheus text exposition to this file"),
	}
}

// WriteTrace writes the recorder's Chrome trace to -trace if set. end is
// the model-time horizon used to close still-open spans.
func (of *OutputFlags) WriteTrace(rec *tracing.Recorder, end float64) error {
	if *of.TraceOut == "" || rec == nil {
		return nil
	}
	f, err := os.Create(*of.TraceOut)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f, end); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace written to %s (%d requests, %d container spans)\n",
		*of.TraceOut, len(rec.Requests()), len(rec.ContainerSpans()))
	return nil
}

// WriteReport writes the JSON run report to -json if set.
func (of *OutputFlags) WriteReport(system, app string, st *simulator.RunStats) error {
	if *of.JSONOut == "" {
		return nil
	}
	f, err := os.Create(*of.JSONOut)
	if err != nil {
		return err
	}
	report := simulator.BuildReport(system, app, st)
	if err := report.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write report: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("report written to %s\n", *of.JSONOut)
	return nil
}

// WriteMetrics writes the run counters in Prometheus text exposition to
// -metrics if set, stamped at model time t.
func (of *OutputFlags) WriteMetrics(system, app string, st *simulator.RunStats, t float64) error {
	if *of.MetricsOut == "" {
		return nil
	}
	store := metrics.NewStore()
	st.RecordMetrics(store, metrics.Labels{"system": system, "app": app}, t)
	f, err := os.Create(*of.MetricsOut)
	if err != nil {
		return err
	}
	if err := store.WriteText(f); err != nil {
		f.Close()
		return fmt.Errorf("write metrics: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("metrics written to %s\n", *of.MetricsOut)
	return nil
}
