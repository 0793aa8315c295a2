package simulator

import (
	"fmt"

	"smiless/internal/apps"
	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/mathx"
	"smiless/internal/tracing"
)

// ControlPlane is the surface a Driver programs against: the full
// driver-facing API of the execution substrate. The Engine implements it and
// hands itself to the driver on both front ends — *Simulator (virtual time,
// discrete events, deterministic), which embeds it, and the online serving
// runtime in internal/serving (wall-clock time, real goroutines) — so
// SMIless and every baseline drive simulated and live clusters with the same
// code. Times are float64 seconds since the run's epoch, matching
// internal/clock.Clock.
type ControlPlane interface {
	// Now returns the current time in seconds since the run started.
	Now() float64
	// App returns the application under management.
	App() *apps.Application
	// SLA returns the run's end-to-end latency bound in seconds.
	SLA() float64
	// Window returns the decision-window length in seconds.
	Window() float64

	// SetDirective installs the per-function policy; GetDirective reads it
	// back.
	SetDirective(id dag.NodeID, d Directive)
	GetDirective(id dag.NodeID) Directive

	// CountsHistory returns completed per-window arrival counts so far;
	// ArrivalTimes returns every application arrival timestamp observed, in
	// arrival order. Both are views of the substrate's append-only logs, not
	// copies: read-only, and valid only for the duration of the Setup or
	// OnWindow callback that obtained them. A driver that needs history
	// beyond the callback copies the part it needs (or keeps an index into
	// the log — entries are never rewritten, so index i names the same
	// entry on every later call). The views are cap-clipped, so append by
	// the caller reallocates and cannot reach the substrate; writing
	// through an element is a contract violation that `-tags
	// smiless_invariants` turns into a panic.
	CountsHistory() []int
	ArrivalTimes() []float64

	// QueueLen is the ready-but-undispatched backlog of one function;
	// LiveInstances the number of live containers.
	QueueLen(id dag.NodeID) int
	LiveInstances(id dag.NodeID) int

	// EnsureConfigInstance, EnsureInstances, HasWarmMatching and
	// RetireMismatched manage the per-function fleet across re-plans.
	EnsureConfigInstance(id dag.NodeID)
	EnsureInstances(id dag.NodeID, n int)
	HasWarmMatching(id dag.NodeID) bool
	RetireMismatched(id dag.NodeID)

	// SchedulePrewarm asks for a warm instance of fn at time at.
	SchedulePrewarm(id dag.NodeID, at float64)

	// FunctionCost returns the cost attributable to one function so far;
	// AccruedCost the cost accrued by still-live containers.
	FunctionCost(id dag.NodeID) float64
	AccruedCost() float64
	// Stats exposes the run statistics accumulated so far.
	Stats() *RunStats
	// TraceRecorder returns the attached span recorder, or nil.
	TraceRecorder() *tracing.Recorder

	// FaultsEnabled reports whether fault injection is active; the
	// resilience feed below is only meaningful when it is.
	FaultsEnabled() bool
	ExecLatencyQuantile(id dag.NodeID, p float64) float64
	FnResilience(id dag.NodeID) (initFails, execFails, successes int)
}

var _ ControlPlane = (*Simulator)(nil)

// --- Engine: the driver-facing API ---------------------------------------

// Now returns the instant of the event being handled, in seconds.
func (e *Engine) Now() float64 { return e.now }

// App returns the application under test.
func (e *Engine) App() *apps.Application { return e.cfg.App }

// SLA returns the run's SLA bound.
func (e *Engine) SLA() float64 { return e.cfg.SLA }

// Window returns the decision-window length.
func (e *Engine) Window() float64 { return e.cfg.Window }

// SetDirective installs the directive for one function and re-dispatches
// any queued work under the new policy (e.g. a burst rescale must be able
// to launch instances for a backlog that accumulated under the old caps).
func (e *Engine) SetDirective(id dag.NodeID, d Directive) {
	fs := e.fn(id)
	fs.directive = d.normalized()
	if fs.queue.Len() > 0 {
		e.pump(fs)
	}
}

// GetDirective returns the current directive for one function.
func (e *Engine) GetDirective(id dag.NodeID) Directive { return e.fn(id).directive }

// fn resolves a function id; a driver addressing a function outside the
// application graph is a programming error.
func (e *Engine) fn(id dag.NodeID) *fnState {
	fs, ok := e.fns[id]
	if !ok {
		panic(fmt.Sprintf("simulator: unknown function %q", id))
	}
	return fs
}

// CountsHistory returns completed per-window arrival counts so far, as a
// read-only view under the ControlPlane history contract.
func (e *Engine) CountsHistory() []int {
	return e.counts[:len(e.counts):len(e.counts)]
}

// ArrivalTimes returns all application arrival timestamps observed so far,
// as a read-only view under the ControlPlane history contract.
func (e *Engine) ArrivalTimes() []float64 {
	return e.arrivalTimes[:len(e.arrivalTimes):len(e.arrivalTimes)]
}

// QueueLen returns the number of ready-but-undispatched invocations of a
// function, letting drivers detect backlog.
func (e *Engine) QueueLen(id dag.NodeID) int { return e.fn(id).queue.Len() }

// LiveInstances returns the number of live containers for a function.
func (e *Engine) LiveInstances(id dag.NodeID) int { return len(e.fn(id).containers) }

// EnsureConfigInstance launches one instance of the function's current
// directive configuration unless one is already live (idle, busy or
// initializing). Drivers call it after a re-plan changes a function's
// flavor: the replacement warms in the background while the previous
// generation keeps serving, making the transition hitless.
func (e *Engine) EnsureConfigInstance(id dag.NodeID) {
	fs := e.fn(id)
	for _, c := range fs.containers {
		if c.cfg == fs.directive.Config {
			return
		}
	}
	e.launch(fs, fs.directive.Config, true)
}

// EnsureInstances launches instances of the function's current directive
// config until n are live (bounded by the directive's Instances cap). Used
// by drivers that pre-scale ahead of a predicted burst.
func (e *Engine) EnsureInstances(id dag.NodeID, n int) {
	fs := e.fn(id)
	for len(fs.containers) < min(n, fs.directive.Instances) {
		e.launch(fs, fs.directive.Config, true)
	}
}

// HasWarmMatching reports whether an idle or busy instance of the
// function's current directive configuration exists.
func (e *Engine) HasWarmMatching(id dag.NodeID) bool {
	fs := e.fn(id)
	for _, c := range fs.containers {
		if (c.state == cIdle || c.state == cBusy) && c.cfg == fs.directive.Config {
			return true
		}
	}
	return false
}

// RetireMismatched terminates idle instances whose configuration no longer
// matches the directive, keeping at least MinWarm live instances. Drivers
// call it after a re-plan once a matching instance is warm, so fleets do
// not pay for two generations of configuration at once.
func (e *Engine) RetireMismatched(id dag.NodeID) {
	fs := e.fn(id)
	for i := 0; i < len(fs.containers); {
		c := fs.containers[i]
		if c.state == cIdle && c.cfg != fs.directive.Config &&
			len(fs.containers) > fs.directive.MinWarm+1 {
			e.terminate(c) // removes c, shifting the rest of the list down onto i
			continue
		}
		i++
	}
}

// SchedulePrewarm asks for a warm instance of fn at time at: initialization
// is scheduled to start at max(now, at − PrewarmLead) unless a live
// instance already exists or will be warm in time.
func (e *Engine) SchedulePrewarm(id dag.NodeID, at float64) {
	fs := e.fn(id)
	start := coldstart.PrewarmStart(e.now, at, fs.directive.PrewarmLead)
	e.schedule(start, event{kind: evPrewarm, idx: int32(fs.idx)})
}

// FunctionCost returns the cost attributable to one function so far:
// terminated containers' billed cost plus live containers' accrual.
func (e *Engine) FunctionCost(id dag.NodeID) float64 {
	fs := e.fn(id)
	// Accrual is summed in container-id order: float addition is not
	// associative, and this value feeds driver decisions.
	total := e.stats.CostPerFn[string(id)]
	for _, c := range fs.containers {
		_, cost := e.billedLife(c)
		total += cost
	}
	return total
}

// AccruedCost returns the cost accrued by still-live containers (billed
// from their initialization start to now).
func (e *Engine) AccruedCost() float64 {
	total := 0.0
	for _, c := range e.conts {
		_, cost := e.billedLife(c)
		total += cost
	}
	return total
}

// Stats exposes the run statistics accumulated so far. Cost totals reflect
// terminated containers only; add AccruedCost for live instances. Drivers
// may both read and bump counters (e.g. DegradedWindows).
func (e *Engine) Stats() *RunStats { return e.stats }

// AttachRecorder installs a span recorder for the run. Call before the run
// starts; attaching mid-run would leave earlier requests untraced. A nil
// recorder detaches tracing.
func (e *Engine) AttachRecorder(r *tracing.Recorder) { e.rec = r }

// TraceRecorder returns the attached span recorder, or nil when the run is
// untraced. Drivers use it to emit decision-window instants.
func (e *Engine) TraceRecorder() *tracing.Recorder { return e.rec }

// FaultsEnabled reports whether fault injection is active for this run.
// Drivers gate their resilience machinery (retry directives, hedging,
// circuit breakers) on it so fault-free runs stay bit-compatible.
func (e *Engine) FaultsEnabled() bool { return e.inj != nil }

// ExecLatencyQuantile returns the p-th percentile (0–100) of the
// function's recent observed execution durations, or 0 with no samples
// yet. Drivers use it to place hedging thresholds.
func (e *Engine) ExecLatencyQuantile(id dag.NodeID, p float64) float64 {
	return mathx.Percentile(e.fn(id).execLat, p)
}

// FnResilience returns the function's cumulative init failures, execution
// failures (crashes and timeouts; node evictions are excluded — they say
// nothing about the flavor) and successful batches — the raw feed for a
// driver's per-function circuit breaker.
func (e *Engine) FnResilience(id dag.NodeID) (initFails, execFails, successes int) {
	fs := e.fn(id)
	return fs.initFails, fs.execFails, fs.successes
}
