package serving

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"sync"
	"time"

	"smiless/internal/clock"
	"smiless/internal/dag"
	"smiless/internal/simulator"
)

// The simulator is the reference implementation of the shared clock
// contract; assert it here (not in package simulator, whose
// //lint:deterministic tag must not grow a clock import).
var _ clock.Clock = (*simulator.Simulator)(nil)

// Runtime is the live control plane: one application served by the engine
// (simulator.LiveEngine) against a real (or fake) clock.
//
// Concurrency contract: all mutable state is guarded by mu. The engine is
// an unexported field: the driver reaches it as the simulator.ControlPlane
// its Setup and OnWindow callbacks are handed, which already run under mu,
// and this package calls it under mu. External callers (gateways, tests) use
// the locked surface: Invoke, Call, Snapshot, LiveCost, Inflight, Rejected, the
// chaos methods, Drain, Close.
type Runtime struct {
	eng simulator.LiveEngine
	cfg Config
	clk clock.Scheduler

	mu sync.Mutex
	// waiters is indexed by the engine's request slot (simulator.Ref.Slot):
	// a request in steady state reuses a vacated slot, and its channel,
	// rather than allocating.
	waiters []waiter

	inflight int
	rejected int
	draining bool
	closed   bool
	drainCh  chan struct{}

	// timer calls onTimer at armedAt, the earliest queued deadline when mu
	// was last released (+Inf: stopped); nil until Start.
	timer   clock.Timer
	armedAt float64
}

// waiter is where the Result of the request in one engine slot goes.
type waiter struct {
	ch chan Result
	// unwatch withdraws the abandon-on-cancel registration on the caller's
	// context; nil when that context cannot be cancelled.
	unwatch func() bool
}

// New prepares a runtime for the given configuration and driver. The
// runtime is inert until Start. An invalid configuration is a
// *simulator.ConfigError.
func New(cfg Config, driver simulator.Driver) (*Runtime, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rt := &Runtime{clk: cfg.Clock}
	ec, err := rt.eng.InitLive(cfg.engineConfig(), driver, cfg.BatchLinger, rt.resolve)
	if err != nil {
		return nil, err
	}
	cfg.SLA, cfg.Window, cfg.Pricing = ec.SLA, ec.Window, ec.Pricing
	cfg.GossipInterval, cfg.SuspectAfter, cfg.DownAfter = ec.GossipInterval, ec.SuspectAfter, ec.DownAfter
	rt.cfg = cfg
	rt.eng.AttachRecorder(cfg.Recorder)
	return rt, nil
}

// Start runs the driver's Setup, arms the decision-window cadence and the
// scheduled faults, and arms the runtime's one clock timer. It starts no
// goroutine. It must be called exactly once.
func (rt *Runtime) Start() {
	rt.mu.Lock()
	if rt.timer != nil || rt.closed {
		rt.mu.Unlock()
		panic("serving: Start called twice or after Close")
	}
	rt.readClock()
	rt.eng.Begin()
	rt.timer = rt.clk.NewTimer(rt.onTimer)
	rt.armedAt = math.Inf(1)
	rt.arm()
	rt.mu.Unlock()
}

// readClock takes the clock reading an external entry point's work happens
// at and hands it to the engine as the current instant; callers hold mu.
func (rt *Runtime) readClock() float64 {
	now := rt.clk.Now()
	rt.eng.SetNow(now)
	return now
}

// onEngine is how every external entry point that can queue an event —
// Invoke, abandon, the chaos calls — reaches the engine. It takes mu, fails
// with ErrClosed once the runtime is closed, runs what is due, runs f at the
// reading that found nothing else due, runs what f made due and re-arms the
// timer: whoever makes work due runs it (see InvokeWithDeadline).
func (rt *Runtime) onEngine(f func() error) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return ErrClosed
	}
	rt.runDue()
	err := f()
	rt.runDue()
	rt.arm()
	return err
}

// runDue pops and handles, in deadline order, every event that is due;
// callers hold mu. Each event is handled at one instant: the clock is read
// once per pop and once more to find nothing else due — the reading the
// engine is left at.
func (rt *Runtime) runDue() {
	for rt.due(rt.readClock()) {
		rt.eng.HandleNext()
	}
}

// due reports whether the earliest queued event's deadline has passed at now.
func (rt *Runtime) due(now float64) bool {
	at, ok := rt.eng.NextAt()
	return ok && at <= now
}

// arm points the timer at the earliest queued deadline; callers hold mu, and
// every holder that runs events arms before it unlocks. It touches the timer
// only when that deadline moved from armedAt, so a pass that leaves the
// deadline where it was — every request on a busy node — makes no timer
// call. Before Start there is no timer to arm.
func (rt *Runtime) arm() {
	if rt.timer == nil {
		return
	}
	at, ok := rt.eng.NextAt()
	if !ok {
		at = math.Inf(1)
	}
	if at == rt.armedAt { //lint:allow floateq armedAt is a stored copy of a queue timestamp, never recomputed
		return
	}
	if ok {
		rt.timer.ResetAt(at)
	} else {
		rt.timer.Stop()
	}
	rt.armedAt = at
}

// onTimer is the timer's function: it runs what the clock made due. The
// timer is no longer armed, so armedAt is +Inf and arm re-arms it. A call
// means "look again" (see clock.Timer): a caller may already have run the
// event.
func (rt *Runtime) onTimer() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return
	}
	rt.armedAt = math.Inf(1)
	rt.runDue()
	rt.arm()
}

// Quiesced reports whether the runtime has fully reacted to the current
// clock reading: no event is due. Every holder of mu that runs events
// re-arms the timer before it unlocks, so the timer then stands at the
// earliest deadline. Fake-clock tests step time by waiting for Quiesced, then
// advancing to the next deadline — that way every event is handled exactly
// at its deadline and latency assertions hold to float precision.
func (rt *Runtime) Quiesced() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return !rt.due(rt.clk.Now())
}

// Invoke admits one application request and returns a channel that yields
// its terminal Result. It fails fast with ErrOverloaded when the inflight
// cap or an entry queue bound is hit, ErrDraining/ErrClosed during
// shutdown. ctx binds the request to its caller: if ctx is cancelled before
// the request resolves, the request is abandoned — it fails immediately and
// frees its admission slot. Config.DefaultDeadline, when set, bounds the
// request's end-to-end latency. Receive the Result once: the channel is then
// recycled and may carry a later request's Result. Call is the blocking form.
func (rt *Runtime) Invoke(ctx context.Context) (<-chan Result, error) {
	return rt.InvokeWithDeadline(ctx, 0)
}

// errNonFiniteDeadline rejects a NaN or infinite budget, which would
// otherwise run unbounded or queue a deadline that never comes.
var errNonFiniteDeadline = errors.New("serving: deadline must be a finite number of seconds")

// InvokeWithDeadline is Invoke with an explicit end-to-end budget in model
// seconds; budget 0 falls back to Config.DefaultDeadline (0 = unbounded), and
// a NaN or infinite budget is an error. Forwarding, failover and retries all
// respect the deadline: a request still unresolved when it elapses fails
// with Result.DeadlineExceeded.
//
// Order: a caller runs everything due before it admits the request, then
// everything its admission made due, including other requests' work due by
// then, and the arrival is stamped with the reading that found nothing else
// due. A request sent exactly on a decision-window boundary is therefore
// counted in the window that opens there and admitted against the state the
// tick left, whichever of the call and the timer's function takes the lock
// first; a request whose DAG runs in zero model time has resolved when the
// call returns.
func (rt *Runtime) InvokeWithDeadline(ctx context.Context, budget float64) (<-chan Result, error) {
	ch, _, err := rt.admit(ctx, budget, true)
	return ch, err
}

// Call is InvokeWithDeadline's blocking form. It registers nothing on ctx:
// if ctx ends first, Call abandons the request and returns what that
// leaves, a Failed+Abandoned Result unless the request resolved meanwhile,
// or ErrClosed after Close, past which a request never resolves.
func (rt *Runtime) Call(ctx context.Context, budget float64) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ch, ref, err := rt.admit(ctx, budget, false)
	if err != nil {
		return Result{}, err
	}
	select {
	case res := <-ch:
		return res, nil
	case <-ctx.Done():
		if err := rt.abandon(ref); err != nil && len(ch) == 0 {
			return Result{}, err
		}
		return <-ch, nil
	}
}

// admit is Invoke's and Call's admission. It returns the request's result
// channel and ref; watch arms Invoke's abandon-on-cancel watch.
func (rt *Runtime) admit(ctx context.Context, budget float64, watch bool) (ch chan Result, ref simulator.Ref, err error) {
	if math.IsNaN(budget) || math.IsInf(budget, 0) {
		return nil, ref, errNonFiniteDeadline
	}
	if ctx == nil {
		ctx = context.Background()
	}
	err = rt.onEngine(func() error {
		if rt.draining {
			return ErrDraining
		}
		if err := ctx.Err(); err != nil {
			// The caller was gone before admission: do not burn a slot.
			return err
		}
		if rt.inflight >= rt.cfg.MaxInflight || rt.eng.EntryBacklog() >= rt.cfg.QueueCap {
			rt.rejected++
			return ErrOverloaded
		}
		if budget <= 0 {
			budget = rt.cfg.DefaultDeadline
		}
		rt.inflight++
		invariant(rt.inflight <= rt.cfg.MaxInflight, "admission slots over-committed: inflight %d > max %d", rt.inflight, rt.cfg.MaxInflight)
		ref = rt.eng.Arrive(budget).Ref()
		for len(rt.waiters) <= ref.Slot() {
			rt.waiters = append(rt.waiters, waiter{})
		}
		w := &rt.waiters[ref.Slot()]
		// A channel still holding a Result nobody received is not reused.
		if ch = w.ch; ch == nil || len(ch) > 0 {
			ch = make(chan Result, 1)
			w.ch = ch
		}
		// Watch for caller disconnect only when the context can actually be
		// cancelled. The watch is a registration on ctx that resolve
		// withdraws, not a parked goroutine: one starts only if the caller
		// really goes away first. It names the request by its ref: fired
		// after resolve, it reaches nothing.
		if watch && ctx.Done() != nil {
			ref := ref // a copy: capturing the result would move it to the heap
			w.unwatch = context.AfterFunc(ctx, func() { rt.abandon(ref) })
		}
		return nil
	})
	return ch, ref, err
}

// abandon fails the admitted request r names, whose caller went away,
// freeing its admission slot and purging its queued members. It does
// nothing once that request has resolved; after Close it is ErrClosed.
func (rt *Runtime) abandon(r simulator.Ref) error {
	return rt.onEngine(func() error {
		rt.eng.Abandon(r)
		return nil
	})
}

// resolve delivers a request's terminal Result and settles admission and
// drain accounting; the engine calls it, under mu, once per request. The
// channel is buffered, so delivery never blocks.
func (rt *Runtime) resolve(inv *simulator.Request, o simulator.Outcome) {
	rt.inflight--
	invariant(rt.inflight >= 0, "admission accounting went negative: inflight %d after resolving request %d", rt.inflight, inv.ID())
	w := rt.waiters[inv.Ref().Slot()]
	rt.waiters[inv.Ref().Slot()] = waiter{ch: w.ch}
	end := rt.eng.Now()
	e2e := end - inv.Arrival()
	w.ch <- Result{
		ReqID: inv.ID(), Arrival: inv.Arrival(), End: end, E2E: e2e,
		Failed:           o != simulator.OutcomeCompleted,
		DeadlineExceeded: o == simulator.OutcomeDeadlineExceeded,
		Abandoned:        o == simulator.OutcomeAbandoned,
		SLAViolated:      o == simulator.OutcomeCompleted && e2e > rt.cfg.SLA,
	}
	if w.unwatch != nil {
		w.unwatch()
	}
	if rt.draining && rt.inflight == 0 {
		close(rt.drainCh)
	}
}

// Drain stops admitting new requests and blocks until every inflight
// request has resolved, or the real-time timeout elapses. It is idempotent;
// concurrent calls share the same drain.
func (rt *Runtime) Drain(timeout time.Duration) error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return ErrClosed
	}
	if !rt.draining {
		rt.draining = true
		rt.drainCh = make(chan struct{})
		if rt.inflight == 0 {
			close(rt.drainCh)
		}
	}
	ch := rt.drainCh
	rt.mu.Unlock()
	timer := time.NewTimer(timeout) //lint:allow clockhygiene drain timeout is a real-time operational bound by contract, not model time
	defer timer.Stop()
	select {
	case <-ch:
		return nil
	case <-timer.C:
		return fmt.Errorf("serving: drain timed out after %v with %d inflight", timeout, rt.Inflight())
	}
}

// Close stops the runtime's timer and terminates every container, settling
// the cost ledger. Requests that have not resolved stay unresolved. Close is
// idempotent. Builds tagged smiless_invariants check, as the simulator's
// end of run does, that every billed second belongs to exactly one container
// and that every admitted request is resolved or still inflight.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.closed = true
	rt.readClock()
	unresolved := rt.eng.Settle()
	invariant(unresolved == rt.inflight, "%d admitted requests unresolved at close, but %d inflight", unresolved, rt.inflight)
	if rt.timer != nil {
		rt.timer.Stop() // a fire already in flight finds the runtime closed
	}
	rt.mu.Unlock()
}

// --- Locked external observers -----------------------------------------

// Now returns the current model time in seconds since the runtime's epoch.
// It reads the clock and takes no lock, so it is safe from any goroutine;
// drivers see the engine's instant instead, through the ControlPlane they
// are handed.
func (rt *Runtime) Now() float64 { return rt.clk.Now() }

// Inflight returns the number of admitted-but-unresolved requests.
func (rt *Runtime) Inflight() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.inflight
}

// Rejected returns the number of requests refused by admission control.
func (rt *Runtime) Rejected() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.rejected
}

// Draining reports whether the runtime has stopped admitting requests.
func (rt *Runtime) Draining() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.draining || rt.closed
}

// Config returns the effective (defaulted) configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// Snapshot returns a deep copy of the run statistics, safe to read while
// the runtime serves. Cost totals cover terminated containers; add
// LiveCost for still-running instances.
func (rt *Runtime) Snapshot() *simulator.RunStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	src := rt.eng.Stats()
	st := *src
	st.CostPerFn, st.ViolationByFn = maps.Clone(src.CostPerFn), maps.Clone(src.ViolationByFn)
	st.E2E = append([]float64(nil), src.E2E...)
	st.E2EArrival = append([]float64(nil), src.E2EArrival...)
	st.PodSamples = append([]simulator.PodSample(nil), src.PodSamples...)
	// The controller refreshes the forecast reports in place every window.
	st.ForecastIT = src.ForecastIT.Clone()
	st.ForecastCount = src.ForecastCount.Clone()
	return &st
}

// LiveCost returns the cost accrued by still-live containers.
func (rt *Runtime) LiveCost() float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.readClock()
	return rt.eng.AccruedCost()
}

// LiveContainers returns the per-function live instance counts, keyed by
// function name.
func (rt *Runtime) LiveContainers() map[string]int {
	return rt.perFunction(rt.eng.LiveInstances)
}

// QueueLens returns the per-function ready-queue depths, keyed by function
// name.
func (rt *Runtime) QueueLens() map[string]int {
	return rt.perFunction(rt.eng.QueueLen)
}

func (rt *Runtime) perFunction(get func(dag.NodeID) int) map[string]int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ids := rt.cfg.App.Graph.Nodes()
	out := make(map[string]int, len(ids))
	for _, id := range ids {
		out[string(id)] = get(id)
	}
	return out
}
