package serving

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"smiless/internal/apps"
	"smiless/internal/clock"
	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/eventq"
	"smiless/internal/faults"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/placement"
	"smiless/internal/simulator"
	"smiless/internal/tracing"
)

// The simulator is the reference implementation of the shared clock
// contract; assert it here (not in package simulator, whose
// //lint:deterministic tag must not grow a clock import).
var _ clock.Clock = (*simulator.Simulator)(nil)

// event kinds, mirroring the simulator's event loop.
const (
	evInitDone = iota
	evExecDone
	evIdleTimeout
	evPrewarm
	evInitFail
	evExecFail
	evExecTimeout
	evHedge
	evRetry
	evLinger
	evWindow
	evGossip         // health-detector tick
	evDeadline       // per-request deadline elapsed
	evNodeCrash      // scheduled NodeFault: process dies
	evNodeRestart    // scheduled NodeFault: crashed node rejoins
	evPartitionStart // scheduled NodeFault: node unreachable
	evPartitionEnd   // scheduled NodeFault: partition heals
	evPreempt        // spot preemption window begins
	evPreemptEnd     // preempted capacity returns
)

// event is one queued occurrence, stored by value in the runtime's
// eventq.Queue, which carries its model-time deadline.
type event struct {
	kind  int
	c     *container // container events
	epoch int        // idle-timer generation, batch sequence or linger epoch
	node  int        // node events
	fs    *fnState   // prewarm and linger target
	ni    *nodeInv   // retried invocation
	inv   *appInv    // deadline events
}

// injector is the fault source (satisfied by *faults.Injector); kept as an
// interface so tests can script outcomes.
type injector interface {
	InitOutcome(fn string) (bool, float64)
	ExecOutcome(fn string) (bool, float64)
	StragglerFactor(fn string) float64
	Jitter() float64
}

// Runtime is the live control plane: one application served by a mock
// executor pool against a real (or fake) clock.
//
// Concurrency contract: all mutable state is guarded by mu. The
// simulator.ControlPlane methods (SetDirective, SchedulePrewarm,
// EnsureInstances, Stats, ...) do NOT take the lock themselves — they are
// for the driver, whose Setup and OnWindow callbacks already run under it.
// External callers (gateways, tests) use the locked surface instead:
// Invoke, Snapshot, LiveCost, Inflight, Rejected, Drain, Close.
type Runtime struct {
	cfg    Config
	driver simulator.Driver
	clk    clock.Scheduler

	mu sync.Mutex
	// now is the instant of the event being handled — one clock reading per
	// event popped and per external call that takes mu (readClock) — and the
	// only time a handler sees, as in the simulator: everything one event
	// stamps, bills or schedules from carries the same float.
	now    float64
	rng    *rand.Rand
	prng   *rand.Rand // placement-only stream: p2c draws never perturb timing samples
	inj    injector
	rec    *tracing.Recorder
	events eventq.Queue[event]
	// windowAt is the deadline of the queued decision-window tick.
	windowAt float64
	nodes    []*nodeAgent

	// fns resolves the driver-facing ids; fnList is the same set in graph
	// order and sources the entry functions. conts holds every live
	// container in id order, so float accumulation over it is reproducible.
	fns      map[dag.NodeID]*fnState
	fnList   []*fnState
	sources  []*fnState
	conts    []*container
	nextCont int
	nextInv  int

	arrivalsThisWindow int
	counts             []int
	arrivalTimes       []float64
	stats              *simulator.RunStats

	inflight int
	rejected int
	draining bool
	closed   bool
	started  bool
	drainCh  chan struct{}

	// Loop coordination: wake is poked when an external caller schedules
	// an event the sleeping loop does not know about; sleeping and
	// wakePending back the Quiesced probe fake-clock tests step on.
	wake        chan struct{}
	stopCh      chan struct{}
	sleeping    bool
	wakePending bool
	loopDone    chan struct{}
}

// New prepares a runtime for the given configuration and driver. The
// runtime is inert until Start.
func New(cfg Config, driver simulator.Driver) (*Runtime, error) {
	if driver == nil {
		return nil, &ConfigError{Field: "driver", Reason: "must not be nil"}
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		cfg:      cfg,
		driver:   driver,
		clk:      cfg.Clock,
		rng:      mathx.NewRand(cfg.Seed),
		prng:     mathx.NewRand(cfg.Seed ^ 0x9e3779b9),
		rec:      cfg.Recorder,
		fns:      make(map[dag.NodeID]*fnState),
		stats:    simulator.NewRunStats(cfg.SLA),
		wake:     make(chan struct{}, 1),
		stopCh:   make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	g := cfg.App.Graph
	for i, id := range g.Nodes() {
		fs := &fnState{
			id:    id,
			spec:  cfg.App.Spec(id),
			class: placement.ClassOf(cfg.App.Spec(id).Field),
			idx:   i,
			npred: len(g.Predecessors(id)),
			directive: normalize(simulator.Directive{
				Config: hardware.Config{Kind: hardware.CPU, Cores: 1},
				Policy: coldstart.KeepAlive,
				Batch:  1, Instances: 1, KeepAlive: 60,
			}),
		}
		rt.fns[id] = fs
		rt.fnList = append(rt.fnList, fs)
	}
	for _, fs := range rt.fnList {
		for _, succ := range g.Successors(fs.id) {
			fs.succs = append(fs.succs, rt.fns[succ])
		}
	}
	for _, src := range g.Sources() {
		rt.sources = append(rt.sources, rt.fns[src])
	}
	rt.nodes = make([]*nodeAgent, cfg.Nodes)
	for i := range rt.nodes {
		rt.nodes[i] = &nodeAgent{id: i, health: nodeUp, alive: true}
	}
	// Guard against the typed-nil interface trap: only assign when the
	// injector is actually enabled.
	if in := faults.NewInjector(cfg.Faults); in != nil {
		rt.inj = in
	}
	return rt, nil
}

// normalize fills Directive defaults (the simulator's normalized() is
// unexported).
func normalize(d simulator.Directive) simulator.Directive {
	if d.Batch < 1 {
		d.Batch = 1
	}
	if d.Instances < 1 {
		d.Instances = 1
	}
	return d
}

// Start runs the driver's Setup, arms the decision-window cadence and
// launches the scheduler loop. It must be called exactly once.
func (rt *Runtime) Start() {
	rt.mu.Lock()
	if rt.started || rt.closed {
		rt.mu.Unlock()
		panic("serving: Start called twice or after Close")
	}
	rt.started = true
	now := rt.readClock()
	rt.driver.Setup(rt)
	rt.windowAt = now + rt.cfg.Window
	rt.schedule(rt.windowAt, event{kind: evWindow})
	// Scheduled node faults: times are model seconds from the epoch.
	if rt.cfg.Faults != nil {
		for _, nf := range rt.cfg.Faults.NodeFaults {
			switch nf.Kind {
			case faults.NodeCrash:
				rt.schedule(now+nf.Start, event{kind: evNodeCrash, node: nf.Node})
				if nf.End > nf.Start {
					rt.schedule(now+nf.End, event{kind: evNodeRestart, node: nf.Node})
				}
			case faults.NodePartition:
				rt.schedule(now+nf.Start, event{kind: evPartitionStart, node: nf.Node})
				rt.schedule(now+nf.End, event{kind: evPartitionEnd, node: nf.Node})
			}
		}
	}
	// Spot preemption windows: like scheduled node faults, times are model
	// seconds from the epoch.
	if rt.cfg.PriceTrace != nil {
		for _, w := range rt.cfg.PriceTrace.Preemptions {
			rt.schedule(now+w.Start, event{kind: evPreempt, node: w.Node})
			rt.schedule(now+w.End, event{kind: evPreemptEnd, node: w.Node})
		}
	}
	// The detector only ticks when something can miss heartbeats: a
	// multi-node pool, or scheduled node faults on a single node.
	if rt.nodesActive() || (rt.cfg.Faults != nil && len(rt.cfg.Faults.NodeFaults) > 0) {
		rt.schedule(now+rt.cfg.GossipInterval, event{kind: evGossip})
	}
	rt.mu.Unlock()
	go rt.loop()
}

// readClock takes the clock reading an external entry point's work happens
// at; callers hold mu.
func (rt *Runtime) readClock() float64 {
	rt.now = rt.clk.Now()
	return rt.now
}

// schedule pushes one future event; callers hold mu.
func (rt *Runtime) schedule(at float64, e event) { rt.events.Push(at, e) }

// wakeLoop pokes the scheduler loop to re-read the heap; callers hold mu.
// Used by external entry points (Invoke) whose events the sleeping loop
// does not know about; events scheduled from inside the loop are picked up
// when it recomputes its next deadline.
func (rt *Runtime) wakeLoop() {
	if rt.wakePending {
		return
	}
	rt.wakePending = true
	select {
	case rt.wake <- struct{}{}:
	default:
	}
}

// runDue pops and handles, in deadline order, every event that is due;
// callers hold mu. Each event is handled at one instant: the clock is read
// once per pop, into rt.now, and once more to find nothing else due — the
// reading rt.now is left at. The queue is only ever popped here — the same
// discipline as the simulator's discrete-event loop.
func (rt *Runtime) runDue() {
	for rt.due(rt.readClock()) {
		_, e := rt.events.Pop()
		rt.handle(e)
	}
}

// due reports whether the earliest queued event's deadline has passed at now.
func (rt *Runtime) due(now float64) bool {
	at, ok := rt.events.NextAt()
	return ok && at <= now
}

// loop is the scheduler goroutine: sleep until the earliest event deadline,
// then run everything due under the lock. It owns one timer for its whole
// life and re-arms it only when it fired or the earliest deadline is no
// longer the one it is armed for; a pass started by a poke that leaves the
// earliest deadline where it was — every request on a busy node — does not
// touch the clock's timers at all.
func (rt *Runtime) loop() {
	defer close(rt.loopDone)
	timer := rt.clk.NewTimer()
	defer timer.Stop()
	armedAt := math.Inf(1) // the deadline the timer is armed for; +Inf: stopped
	fired := false
	for {
		rt.mu.Lock()
		if rt.closed {
			rt.mu.Unlock()
			return
		}
		rt.sleeping = false
		// This pass serves any poke so far. A poke that raced the timer is
		// still in the channel; left there it would start one more pass that
		// Quiesced cannot see coming, and a fake-clock test advancing during
		// that pass gets its timer registered past the event it is for.
		rt.wakePending = false
		select {
		case <-rt.wake:
		default:
		}
		rt.runDue()
		// Arm the timer BEFORE publishing sleeping=true and releasing the
		// lock: Quiesced (the fake-clock stepping probe) must only report
		// true once the timer stands at the earliest deadline, so that a
		// test's AdvanceToNext lands exactly on it.
		at, ok := rt.events.NextAt()
		if !ok {
			at = math.Inf(1)
		}
		if fired || at != armedAt { //lint:allow floateq armedAt is a stored copy of a queue timestamp, never recomputed
			if ok {
				// A fresh reading: the pass may have spent real time in a handler.
				timer.Reset(at - rt.clk.Now())
			} else {
				timer.Stop()
			}
			armedAt, fired = at, false
		}
		rt.sleeping = true
		rt.mu.Unlock()

		select {
		case <-rt.stopCh:
			return
		case <-rt.wake:
		case <-timer.C():
			fired = true
		}
	}
}

// handle dispatches one due event; callers hold mu. Node-side events (init
// and exec completions or crashes) from a crashed node are dropped — the
// work died with the process — and from a partitioned node they are held and
// replayed in order when the partition heals.
func (rt *Runtime) handle(e event) {
	if c := e.c; nodeSideEvent(e.kind) && c.state != cDead {
		n := rt.nodes[c.node]
		if !n.alive {
			return
		}
		if n.partitioned {
			n.held = append(n.held, e)
			return
		}
	}
	switch e.kind {
	case evInitDone:
		rt.onInitDone(e.c)
	case evExecDone:
		rt.onExecDone(e.c, e.epoch)
	case evIdleTimeout:
		rt.onIdleTimeout(e.c, e.epoch)
	case evPrewarm:
		rt.onPrewarm(e.fs)
	case evInitFail:
		rt.onInitFail(e.c)
	case evExecFail:
		rt.onExecFail(e.c, e.epoch)
	case evExecTimeout:
		rt.onExecTimeout(e.c, e.epoch)
	case evHedge:
		rt.onHedge(e.c, e.epoch)
	case evRetry:
		rt.onRetry(e.ni)
	case evLinger:
		rt.onLinger(e.fs, e.epoch)
	case evGossip:
		rt.onGossip()
	case evDeadline:
		rt.onDeadline(e.inv)
	case evNodeCrash:
		rt.onNodeCrash(e.node)
	case evNodeRestart:
		rt.onNodeRestart(e.node)
	case evPartitionStart:
		rt.onPartitionStart(e.node)
	case evPartitionEnd:
		rt.onPartitionEnd(e.node)
	case evPreempt:
		rt.onPreempt(e.node)
	case evPreemptEnd:
		rt.onPreemptEnd(e.node)
	case evWindow:
		rt.counts = append(rt.counts, rt.arrivalsThisWindow)
		rt.arrivalsThisWindow = 0
		guard := rt.guardHistory()
		rt.driver.OnWindow(rt, rt.now)
		guard.check(rt)
		rt.samplePods()
		rt.windowAt += rt.cfg.Window
		rt.schedule(rt.windowAt, event{kind: evWindow})
	}
}

// Quiesced reports whether the runtime has fully reacted to the current
// clock reading: the scheduler loop is asleep with no pending wake-up and
// no event is due. Fake-clock tests step time by waiting for Quiesced, then
// advancing to the next deadline — that way every event is handled exactly
// at its deadline and latency assertions hold to float precision.
func (rt *Runtime) Quiesced() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.sleeping && !rt.wakePending && !rt.due(rt.clk.Now())
}

// Invoke admits one application request and returns a channel that yields
// its terminal Result. It fails fast with ErrOverloaded when the inflight
// cap or an entry queue bound is hit, ErrDraining/ErrClosed during
// shutdown. ctx binds the request to its caller: if ctx is cancelled before
// the request resolves, the request is abandoned — it fails immediately and
// frees its admission slot. Config.DefaultDeadline, when set, bounds the
// request's end-to-end latency.
func (rt *Runtime) Invoke(ctx context.Context) (<-chan Result, error) {
	return rt.InvokeWithDeadline(ctx, 0)
}

// InvokeWithDeadline is Invoke with an explicit end-to-end budget in model
// seconds; budget 0 falls back to Config.DefaultDeadline (0 = unbounded).
// Forwarding, failover and retries all respect the deadline: a request still
// unresolved when it elapses fails with Result.DeadlineExceeded.
//
// Order: an arrival comes after every event that came due while the scheduler
// loop slept. If the loop is asleep with no poke outstanding, whatever is due
// is due because the clock moved, and the call runs it itself before it
// admits the request, whichever of it and the loop's timer takes the lock
// first: a request sent exactly on a decision-window boundary is counted in
// the window that opens there and is admitted against the state the tick
// left. With a poke outstanding the due events are what another caller
// scheduled a moment ago (a zero-latency completion, a pre-warm at offset 0);
// they stay with the loop pass that caller woke, so how long a call takes
// does not depend on whose work happens to be pending.
func (rt *Runtime) InvokeWithDeadline(ctx context.Context, budget float64) (<-chan Result, error) {
	if ctx == nil {
		ctx = context.Background() //lint:allow ctxflow nil-ctx compatibility fallback: the caller explicitly declined cancellation
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return nil, ErrClosed
	}
	if rt.draining {
		return nil, ErrDraining
	}
	if err := ctx.Err(); err != nil {
		// The caller was gone before admission: do not burn a slot.
		return nil, err
	}
	if rt.sleeping && !rt.wakePending {
		rt.runDue()
	} else {
		rt.readClock()
	}
	if rt.inflight >= rt.cfg.MaxInflight {
		rt.rejected++
		return nil, ErrOverloaded
	}
	for _, src := range rt.sources {
		if src.queue.Len() >= rt.cfg.QueueCap {
			rt.rejected++
			return nil, ErrOverloaded
		}
	}
	if budget <= 0 {
		budget = rt.cfg.DefaultDeadline
	}
	rt.inflight++
	invariant(rt.inflight <= rt.cfg.MaxInflight, "admission slots over-committed: inflight %d > max %d", rt.inflight, rt.cfg.MaxInflight)
	inv, ch := rt.onArrival()
	if budget > 0 {
		inv.deadline = inv.arrival + budget
		rt.schedule(inv.deadline, event{kind: evDeadline, inv: inv})
	}
	// Watch for caller disconnect only when the context can actually be
	// cancelled. The watch is a registration on ctx that resolve withdraws,
	// not a parked goroutine: one starts only if the caller really goes away
	// first.
	if ctx.Done() != nil {
		inv.unwatch = context.AfterFunc(ctx, func() { rt.abandon(inv) })
	}
	rt.wakeLoop()
	return ch, nil
}

// abandon fails an admitted request whose caller went away, freeing its
// admission slot and purging its queued members.
func (rt *Runtime) abandon(inv *appInv) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed || inv.resolved || inv.failed {
		return
	}
	rt.stats.Abandoned++
	now := rt.readClock()
	rt.dropInvocation(inv, Result{
		ReqID: inv.id, Arrival: inv.arrival, End: now,
		E2E: now - inv.arrival, Failed: true, Abandoned: true,
	})
	rt.wakeLoop()
}

// onDeadline fails a request whose end-to-end budget elapsed unresolved.
func (rt *Runtime) onDeadline(inv *appInv) {
	if inv == nil || inv.resolved || inv.failed {
		return
	}
	rt.stats.DeadlineExceeded++
	now := rt.now
	rt.dropInvocation(inv, Result{
		ReqID: inv.id, Arrival: inv.arrival, End: now,
		E2E: now - inv.arrival, Failed: true, DeadlineExceeded: true,
	})
}

// onArrival admits one request: record the arrival, fire reactive
// pre-warms, release the entry function. Callers hold mu. Port of the
// simulator's onArrival plus the Result channel.
func (rt *Runtime) onArrival() (*appInv, <-chan Result) {
	now := rt.now
	rt.arrivalsThisWindow++
	rt.arrivalTimes = append(rt.arrivalTimes, now)
	inv := &appInv{
		id:        rt.nextInv,
		arrival:   now,
		prog:      make([]fnProgress, len(rt.fnList)),
		remaining: len(rt.fnList),
		resCh:     make(chan Result, 1),
	}
	rt.nextInv++
	if rt.rec != nil {
		rt.rec.BeginRequest(inv.id, now)
	}
	for i, fs := range rt.fnList {
		inv.prog[i].pending = int32(fs.npred)
	}
	for _, fs := range rt.fnList {
		if fs.directive.PrewarmOnArrival && fs.npred > 0 {
			rt.SchedulePrewarm(fs.id, now+fs.directive.PathOffset)
		}
	}
	for _, src := range rt.sources {
		rt.enqueue(&nodeInv{inv: inv, fs: src, readyAt: now})
	}
	return inv, inv.resCh
}

// Drain stops admitting new requests and blocks until every inflight
// request has resolved, or the real-time timeout elapses. It is idempotent;
// concurrent calls share the same drain.
//
//lint:allow ctxflow the wait is bounded by the timeout parameter; a context would duplicate it
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
	select {
	case <-ch:
		return nil
	case <-time.After(timeout): //lint:allow clockhygiene drain timeout is a real-time operational bound by contract, not model time
		return fmt.Errorf("serving: drain timed out after %v with %d inflight", timeout, rt.Inflight())
	}
}

// Close stops the scheduler loop and terminates every container, settling
// the cost ledger. Pending requests that have not resolved receive a failed
// Result. Close is idempotent.
//
//lint:allow ctxflow shutdown joins the scheduler goroutine, which always terminates once stopCh closes
func (rt *Runtime) Close() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.closed = true
	now := rt.readClock()
	// Settle the ledger: terminate in id order so float cost accumulation
	// is reproducible.
	for _, c := range slices.Clone(rt.conts) { // terminate edits the list
		rt.terminate(c)
	}
	// Settle detector-declared down time still open at shutdown.
	for _, n := range rt.nodes {
		if n.health == nodeDown && n.detectorDown {
			rt.stats.NodeDownSeconds += now - n.downSince
		}
	}
	close(rt.stopCh)
	started := rt.started
	rt.mu.Unlock()
	if started {
		<-rt.loopDone
	}
}

// --- Locked external observers -----------------------------------------

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
	st := *rt.stats
	st.CostPerFn = make(map[string]float64, len(rt.stats.CostPerFn))
	for k, v := range rt.stats.CostPerFn {
		st.CostPerFn[k] = v
	}
	if rt.stats.ViolationByFn != nil {
		st.ViolationByFn = make(map[string]int, len(rt.stats.ViolationByFn))
		for k, v := range rt.stats.ViolationByFn {
			st.ViolationByFn[k] = v
		}
	}
	st.E2E = append([]float64(nil), rt.stats.E2E...)
	st.E2EArrival = append([]float64(nil), rt.stats.E2EArrival...)
	st.PodSamples = append([]simulator.PodSample(nil), rt.stats.PodSamples...)
	return &st
}

// CountsHistoryLocked is the external (locked) counterpart of the
// driver-facing CountsHistory. It copies: the caller keeps the result after
// rt.mu is released, while the event loop keeps appending to the log.
func (rt *Runtime) CountsHistoryLocked() []int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]int(nil), rt.counts...)
}

// ArrivalTimesLocked is the external (locked) counterpart of the
// driver-facing ArrivalTimes; it copies for the same reason.
func (rt *Runtime) ArrivalTimesLocked() []float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]float64(nil), rt.arrivalTimes...)
}

// LiveCost returns the cost accrued by still-live containers.
func (rt *Runtime) LiveCost() float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.readClock()
	return rt.AccruedCost()
}

// LiveContainers returns the per-function live instance counts, keyed by
// function name.
func (rt *Runtime) LiveContainers() map[string]int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[string]int, len(rt.fns))
	for id, fs := range rt.fns {
		out[string(id)] = fs.liveCount()
	}
	return out
}

// QueueLens returns the per-function ready-queue depths, keyed by function
// name.
func (rt *Runtime) QueueLens() map[string]int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[string]int, len(rt.fns))
	for id, fs := range rt.fns {
		out[string(id)] = fs.queue.Len()
	}
	return out
}

// --- simulator.ControlPlane --------------------------------------------
// Driver-facing surface; see the Runtime doc for the locking contract.

var _ simulator.ControlPlane = (*Runtime)(nil)

// Now returns the current model time in seconds since the runtime's epoch.
// It reads the clock and takes no lock, so it is safe from any goroutine.
func (rt *Runtime) Now() float64 { return rt.clk.Now() }

// App returns the application under management.
func (rt *Runtime) App() *apps.Application { return rt.cfg.App }

// SLA returns the run's end-to-end latency bound.
func (rt *Runtime) SLA() float64 { return rt.cfg.SLA }

// Window returns the decision-window length.
func (rt *Runtime) Window() float64 { return rt.cfg.Window }

// SetDirective installs the per-function policy and re-dispatches queued
// work under it.
func (rt *Runtime) SetDirective(id dag.NodeID, d simulator.Directive) {
	fs := rt.fn(id)
	fs.directive = normalize(d)
	if fs.queue.Len() > 0 {
		rt.pump(fs)
	}
}

// GetDirective returns the current directive for one function.
func (rt *Runtime) GetDirective(id dag.NodeID) simulator.Directive {
	return rt.fn(id).directive
}

// CountsHistory returns completed per-window arrival counts so far, as a
// read-only view under the ControlPlane history contract (rt.mu is held for
// the whole driver callback, so the log cannot move under the driver).
func (rt *Runtime) CountsHistory() []int {
	return rt.counts[:len(rt.counts):len(rt.counts)]
}

// ArrivalTimes returns every arrival timestamp observed so far, as a
// read-only view under the ControlPlane history contract.
func (rt *Runtime) ArrivalTimes() []float64 {
	return rt.arrivalTimes[:len(rt.arrivalTimes):len(rt.arrivalTimes)]
}

// QueueLen returns one function's ready-but-undispatched backlog.
func (rt *Runtime) QueueLen(id dag.NodeID) int { return rt.fn(id).queue.Len() }

// LiveInstances returns the number of live containers for a function.
func (rt *Runtime) LiveInstances(id dag.NodeID) int { return rt.fn(id).liveCount() }

// EnsureConfigInstance launches one instance of the function's current
// directive configuration unless one is already live.
func (rt *Runtime) EnsureConfigInstance(id dag.NodeID) {
	fs := rt.fn(id)
	for _, c := range fs.containers {
		if c.cfg == fs.directive.Config {
			return
		}
	}
	rt.launch(fs, fs.directive.Config, true)
}

// EnsureInstances launches instances of the directive config until n are
// live (bounded by the directive's Instances cap).
func (rt *Runtime) EnsureInstances(id dag.NodeID, n int) {
	fs := rt.fn(id)
	if n > fs.directive.Instances {
		n = fs.directive.Instances
	}
	for fs.liveCount() < n {
		rt.launch(fs, fs.directive.Config, true)
	}
}

// HasWarmMatching reports whether an idle or busy instance of the current
// directive configuration exists.
func (rt *Runtime) HasWarmMatching(id dag.NodeID) bool {
	fs := rt.fn(id)
	for _, c := range fs.containers {
		if (c.state == cIdle || c.state == cBusy) && c.cfg == fs.directive.Config {
			return true
		}
	}
	return false
}

// RetireMismatched terminates idle instances whose configuration no longer
// matches the directive, keeping at least MinWarm live instances.
func (rt *Runtime) RetireMismatched(id dag.NodeID) {
	fs := rt.fn(id)
	for _, c := range slices.Clone(fs.containers) { // terminate edits the list
		if c.state == cIdle && c.cfg != fs.directive.Config &&
			fs.liveCount() > fs.directive.MinWarm+1 {
			rt.terminate(c)
		}
	}
}

// SchedulePrewarm asks for a warm instance of fn at time at; initialization
// starts at max(now, at − PrewarmLead).
func (rt *Runtime) SchedulePrewarm(id dag.NodeID, at float64) {
	fs := rt.fn(id)
	start := coldstart.PrewarmStart(rt.now, at, fs.directive.PrewarmLead)
	rt.schedule(start, event{kind: evPrewarm, fs: fs})
}

// FunctionCost returns the cost attributable to one function so far:
// terminated containers' billed cost plus live containers' accrual, summed
// in container-id order for reproducibility.
func (rt *Runtime) FunctionCost(id dag.NodeID) float64 {
	fs := rt.fn(id)
	total := rt.stats.CostPerFn[string(id)]
	now := rt.now
	for _, c := range fs.containers {
		_, cost := rt.billedLife(c, now)
		total += cost
	}
	return total
}

// AccruedCost returns the cost accrued by still-live containers.
func (rt *Runtime) AccruedCost() float64 {
	total := 0.0
	now := rt.now
	for _, c := range rt.conts {
		_, cost := rt.billedLife(c, now)
		total += cost
	}
	return total
}

// billedLife returns a container's billed lifetime in model seconds and its
// dollar cost from initialization start to now: static pricing by default,
// or the spot trace's multiplier-weighted integral when one is configured.
// FlatTrace(1) integrates to exactly the raw lifetime, so its bills are
// bit-identical to static pricing.
func (rt *Runtime) billedLife(c *container, now float64) (life, cost float64) {
	life = now - c.initStart
	unit := rt.cfg.Pricing.UnitCost(c.cfg)
	if pt := rt.cfg.PriceTrace; pt != nil {
		return life, unit * pt.Integrate(c.initStart, now)
	}
	return life, life * unit
}

// Stats exposes the live run statistics. Drivers may both read and bump
// counters (e.g. DegradedWindows) from their callbacks; external readers
// use Snapshot instead.
func (rt *Runtime) Stats() *simulator.RunStats { return rt.stats }

// TraceRecorder returns the attached span recorder, or nil.
func (rt *Runtime) TraceRecorder() *tracing.Recorder { return rt.rec }

// FaultsEnabled reports whether fault injection is active.
func (rt *Runtime) FaultsEnabled() bool { return rt.inj != nil }

// ExecLatencyQuantile returns the p-th percentile (0–100) of the function's
// recent observed execution durations, or 0 with no samples yet.
func (rt *Runtime) ExecLatencyQuantile(id dag.NodeID, p float64) float64 {
	return mathx.Percentile(rt.fn(id).execLat, p)
}

// FnResilience returns the function's cumulative init failures, execution
// failures and successful batches.
func (rt *Runtime) FnResilience(id dag.NodeID) (initFails, execFails, successes int) {
	fs := rt.fn(id)
	return fs.initFails, fs.execFails, fs.successes
}

// fn resolves a function id, panicking on unknown ids exactly like the
// simulator (a driver addressing a function outside the app graph is a
// programming error).
func (rt *Runtime) fn(id dag.NodeID) *fnState {
	fs, ok := rt.fns[id]
	if !ok {
		panic(fmt.Sprintf("serving: unknown function %q", id))
	}
	return fs
}

// samplePods records pod-count and arrival series each window.
func (rt *Runtime) samplePods() {
	cpuPods, gpuPods := 0, 0
	for _, c := range rt.conts {
		if c.cfg.Kind == hardware.CPU {
			cpuPods++
		} else {
			gpuPods++
		}
	}
	last := 0
	if len(rt.counts) > 0 {
		last = rt.counts[len(rt.counts)-1]
	}
	rt.stats.PodSamples = append(rt.stats.PodSamples, simulator.PodSample{
		Time: rt.now, CPU: cpuPods, GPU: gpuPods, Arrivals: last,
	})
}
