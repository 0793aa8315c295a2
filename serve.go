package smiless

import (
	"smiless/internal/clock"
	"smiless/internal/experiments"
	"smiless/internal/serving"
)

// Online serving surface (DESIGN.md §12), re-exported so live deployments
// can be wired through this package alone: a wall-clock Runtime walks the
// application DAG through a concurrent executor pool, honoring the same
// perfmodel latencies, cold-start policies and fault plans as the
// simulator, and a Gateway exposes it over HTTP.
type (
	// Clock abstracts time for the serving runtime: wall clock in
	// production, scaled wall clock for accelerated soak tests, fake clock
	// for deterministic integration tests.
	Clock = clock.Scheduler
	// FakeClock is the manually-advanced clock used by deterministic
	// serving tests (Advance, AdvanceToNext).
	FakeClock = clock.Fake
	// ServeConfig configures a serving Runtime. The zero value of the
	// optional fields picks production defaults (wall clock, 1 s decision
	// windows, SLA 2 s).
	ServeConfig = serving.Config
	// ServeResult is one live invocation's outcome.
	ServeResult = serving.Result
	// Runtime is the online serving runtime: the live counterpart of
	// Simulator, running the same engine and handing drivers the same
	// control-plane surface.
	Runtime = serving.Runtime
	// Gateway serves a Runtime over HTTP: /invoke, /healthz, /metrics,
	// /statz and /trace.
	Gateway = serving.Gateway
)

// NewWallClock returns the production clock (real time, seconds since
// construction).
func NewWallClock() Clock { return clock.NewWall() }

// NewScaledWallClock returns a wall clock running factor× faster than real
// time, for accelerated smoke and soak tests. factor <= 0 falls back to 1.
func NewScaledWallClock(factor float64) Clock { return clock.NewScaledWall(factor) }

// NewFakeClock returns a manually-advanced clock for deterministic serving
// tests.
func NewFakeClock() *FakeClock { return clock.NewFake() }

// NewRuntime builds and validates (but does not start) an online serving
// runtime around driver. Call Runtime.Start, then Invoke or serve it
// through NewServingGateway.
func NewRuntime(cfg ServeConfig, driver Driver) (*Runtime, error) {
	return serving.New(cfg, driver)
}

// NewServingGateway wraps rt in the HTTP gateway. system names the driver
// in /statz and /healthz responses.
func NewServingGateway(rt *Runtime, system string) *Gateway {
	return serving.NewGateway(rt, system)
}

// NewSystemDriver builds the named serving system as a live Driver for a
// Runtime (or a Simulator). SystemOPT is rejected: the oracle needs the
// full future trace and cannot serve online. Options: WithSeed,
// WithForecaster, WithControllerOptions.
func NewSystemDriver(system SystemName, app *Application, sla float64, opts ...Option) (Driver, error) {
	o := newEvaluateOptions(opts)
	p := experiments.RunParams{
		App: app, SLA: sla, Seed: o.Seed, Forecaster: o.Forecaster,
		Controller: o.Controller,
	}
	return experiments.NewDriver(system, p)
}
