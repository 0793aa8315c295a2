// Package simulator is the serverless-cluster substrate replacing the
// paper's OpenFaaS/Kubernetes testbed (§VI): a discrete-event simulation of
// container lifecycles (initialization, inference, idle keep-alive,
// termination), DAG request routing, batching agents, MPS-style fractional
// GPU allocation, per-second billing, and pre-warm timers.
//
// The simulator is policy-agnostic: a Driver (the SMIless controller or one
// of the baseline systems) installs per-function Directives and may schedule
// pre-warm events; the simulator realizes them against sampled ground-truth
// timings and accounts cost exactly as Eq. (3) does — billed
// instance-seconds times unit cost.
//
// The state machine itself is the Engine, which both front ends run: the
// Simulator here (virtual time, a trace cursor, run to quiescence) and the
// live serving runtime in internal/serving (a clock, Invoke, admission).
//
//lint:deterministic
package simulator

import (
	"math"
	"math/rand"
	"slices"

	"smiless/internal/apps"
	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/eventq"
	"smiless/internal/faults"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/placement"
	"smiless/internal/tracing"
)

// Engine is the container and request state machine: cold starts, batching,
// keep-alive and pre-warms, retries, hedges and timeouts, node health and
// failover, Eq. 3 billing, and the driver's decision windows. It reads no
// clock: its front end sets the instant (SetNow, or the simulator's virtual
// time) before each handler runs, and every handler stamps, bills and
// schedules from that one instant.
//
// Same-instant order. Every pending event, the decision-window tick
// included, is one entry of an eventq.Queue, which pops by (time, ticket):
// events on one timestamp run in the order they were queued. The tick is
// queued by the tick before it, ahead of anything that tick's driver
// callback schedules. An application arrival at T is admitted after every
// event due at or before T: the simulator breaks a tie between its trace
// cursor and the queue in the queue's favour, and the serving runtime runs
// what is due before it admits a request. A request sent on a window
// boundary therefore counts in the window that opens there, in both.
//
// Simulator embeds the Engine; a live front end holds a LiveEngine, which
// adds the surface it drives the engine through.
type Engine struct {
	cfg    Config
	driver Driver
	rng    *rand.Rand
	// prng is the placement RNG: only P2C placement draws from it, so the
	// ground-truth timing stream (rng) is identical whichever policy runs.
	prng *rand.Rand
	// inj is non-nil only when Config.Faults enables injection; every fault
	// code path is gated on it so fault-free runs never draw from it.
	inj injector
	// rec is the optional span recorder. Like inj, every emission is gated on
	// it being non-nil and it only observes.
	rec *tracing.Recorder
	// linger is how long dispatch onto an idle instance waits for a batch
	// to fill (0: never); resolved, when set, receives each request's
	// outcome once; churns reports whether nodes can fail with no fault
	// scheduled (a live pool's chaos calls), so the failure detector must
	// always run.
	linger   float64
	resolved func(*Request, Outcome)
	churns   bool

	now    float64
	events eventq.Queue[event]
	// windowAt is the time of the latest decision-window tick queued; no
	// tick past lastTick is queued.
	windowAt, lastTick float64
	nodes              []*nodeState
	// pendingLaunch holds launches waiting for node capacity (cluster.go).
	pendingLaunch []*container

	// fns resolves the driver-facing ids; fnList is the same set in graph
	// order and sources the entry functions. conts holds every live
	// container in id order, so float accumulation over it is reproducible.
	fns      map[dag.NodeID]*fnState
	fnList   []*fnState
	sources  []*fnState
	conts    []*container
	nextCont int
	nextInv  int
	// spare holds completed requests nothing can point at any more
	// (completeInvocation); arrive reuses the last one before allocating.
	// dead lists the containers terminated since the last top-level entry
	// (dispatch, arrive), which then moves them to spareConts for launch.
	// Both are linked through container.next, so neither ever allocates.
	spare            []*Request
	dead, spareConts *container

	arrivalsThisWindow int
	counts             []int // per-window arrival history
	arrivalTimes       []float64
	stats              *RunStats
}

// ControlPlane is the surface drivers are handed: every callback sees the
// engine's current instant.
var _ ControlPlane = (*Engine)(nil)

// injector is the fault source the engine consults. It is satisfied by
// *faults.Injector; in-package tests install scripted fakes.
type injector interface {
	InitOutcome(fn string) (bool, float64)
	ExecOutcome(fn string) (bool, float64)
	StragglerFactor(fn string) float64
	Jitter() float64
}

// eventKind discriminates queued events.
type eventKind uint8

const (
	evInitDone       eventKind = iota // container finished initializing
	evExecDone                        // container finished a batch
	evIdleTimeout                     // keep-alive queue entry due
	evPrewarm                         // scheduled pre-warm point
	evInitFail                        // injected crash mid-initialization
	evExecFail                        // injected crash mid-execution
	evExecTimeout                     // gateway per-attempt timeout fired
	evHedge                           // hedge point for a slow single execution
	evRetry                           // backed-off retry becomes ready
	evLinger                          // batch aggregation window expired
	evWindow                          // decision-window boundary
	evDeadline                        // per-request deadline elapsed
	evGossip                          // health-gossip tick: advance suspect/down/recovered
	evNodeCrash                       // node process dies silently
	evNodeRestart                     // crashed node rejoins empty
	evPartitionStart                  // node becomes unreachable
	evPartitionEnd                    // partition heals, held completions deliver
	evPreempt                         // spot preemption window begins
	evPreemptEnd                      // preempted capacity returns
)

// nodeSide reports whether the event is a completion or failure emitted by
// the container's own node — lost with a crashed node, delayed by a
// partition — as opposed to gateway-side timers (timeouts, hedges, idle
// reaping), which the control plane runs regardless of node reachability.
func (e *event) nodeSide() bool {
	switch e.kind {
	case evInitDone, evExecDone, evInitFail, evExecFail:
		return true
	}
	return false
}

// event is one queued occurrence, the payload of an entry in the engine's
// eventq.Queue (which carries its time and rank in a pointer-free heap key).
// It is packed into five words, three of them pointers, and is written to
// the queue's slab once per push rather than moved on every sift step.
type event struct {
	kind eventKind
	// idx is a node event's node, or a pre-warm or linger event's function
	// (its graph index).
	idx int32
	// c is the container of a container event. epoch tells a stale event
	// apart: an init event's launch (container id), an idle-timer generation
	// or batch sequence, a linger epoch, or a deadline event's request id.
	epoch int
	c     *container
	ni    *nodeInv // retried invocation
	inv   *Request // deadline events; the object may since stand for a later request
}

// container states.
const (
	cInitializing = iota
	cIdle
	cBusy
	cDead
)

// container is one instance. The object is reused: a terminated container
// becomes the next launch (recycleDead), so every event names the life it
// was queued for — an init event by id, a fresh one per launch — and the
// counters batchSeq and timerGen keep running across lives.
type container struct {
	id        int
	fn        *fnState
	cfg       hardware.Config
	state     int
	initStart float64
	batchSeq  int // validates in-flight completion, timeout and hedge events
	// Keep-alive: idleAt is the deadline of the last armIdleTimer and
	// idleTicket its same-instant rank; idleArmed drops when a batch starts.
	// At most one queue entry per container is live — generation timerGen,
	// due at timerAt (+Inf: none) — and it re-pushes itself when the deadline
	// has moved later by the time it fires.
	idleAt     float64
	idleTicket uint64
	timerAt    float64
	timerGen   int
	node       int // -1 while the launch waits for capacity
	// assigned waits to run when init completes, batch is executing; at most
	// one of them is non-empty, and they pass one backing array back and
	// forth (startBatch builds the batch in assigned's, onExecDone hands it
	// back), so a warm container dispatches without allocating.
	assigned []*nodeInv
	batch    []*nodeInv
	next     *container // dead or spare list link
	// The flags share one word: idleArmed (see Keep-alive), prewarmed
	// (launched by a pre-warm, not by a waiting request) and, in invariant
	// builds, retired: a dead container that would have been reused, which
	// no code may touch again.
	idleArmed, prewarmed, retired bool
}

// latWindow is the per-function ring of recent execution durations backing
// ExecLatencyQuantile (hedging thresholds).
const latWindow = 64

type fnState struct {
	id    dag.NodeID
	spec  *apps.FunctionSpec
	class placement.Class // interference class of spec.Field
	// Topology, fixed at init: position in graph order, predecessor count
	// and successors, so the event path never asks the dag.Graph.
	idx       int
	npred     int
	succs     []*fnState
	directive Directive
	// containers holds the live instances in id order: the first match of a
	// scan is the lowest id, and its length is the live count.
	containers []*container
	queue      eventq.FIFO[*nodeInv]

	// Batch-linger state: while armed, dispatch onto idle instances is held
	// until the queue fills the batch or the linger deadline passes.
	lingerArmed   bool
	lingerEpoch   int
	lingerExpired bool

	// Resilience bookkeeping: recent execution durations (ring buffer)
	// and failure/success counts for breaker-driving drivers.
	execLat   []float64
	latPos    int
	initFails int
	execFails int
	successes int
}

// recordLatency appends one execution duration to the ring.
func (f *fnState) recordLatency(d float64) {
	if len(f.execLat) < latWindow {
		f.execLat = append(f.execLat, d)
		return
	}
	f.execLat[f.latPos] = d
	f.latPos = (f.latPos + 1) % latWindow
}

// Request is one admitted application request. Its fields are sized to
// keep it in a 64-byte allocation; prog, with every function's primary
// member embedded, is its one other. Both are reused: once a request has
// completed and nothing can point at it any more, the engine hands the
// same object, prog included, to a later arrival (completeInvocation).
type Request struct {
	id        int
	arrival   float64
	deadline  float64      // absolute; 0 = unbounded
	prog      []fnProgress // by function index
	remaining int32        // unfinished functions
	tag       int32
	failed    bool // a member exhausted its retries, or the request was dropped
	resolved  bool // completed or failed: the outcome has been handed out
	// shared marks a request a hedge twin or a partition failover copy
	// points at: a second nodeInv that may outlive its completion.
	shared bool
	// retired marks, in invariant builds, a completed request that would
	// have been reused; touching one of its members is a stale reference.
	retired bool
}

// ID is the request's engine-assigned id (it matches tracing spans).
func (r *Request) ID() int { return r.id }

// Tag is the front end's own index for the request, as passed to Arrive.
func (r *Request) Tag() int { return int(r.tag) }

// Arrival is the instant the request was admitted.
func (r *Request) Arrival() float64 { return r.arrival }

// Resolved reports whether the request's outcome has been handed out.
func (r *Request) Resolved() bool { return r.resolved }

// Outcome is how a request resolved.
type Outcome int

const (
	OutcomeCompleted        Outcome = iota // every function ran
	OutcomeFailed                          // a member exhausted its retries
	OutcomeDeadlineExceeded                // its deadline elapsed first
	OutcomeAbandoned                       // its caller went away first
)

// fnProgress is one function's progress within a request, and its primary
// member: the invocation queued once the function's predecessors finish,
// and re-queued by retries and failover. It lives here, not in an
// allocation of its own; hedge twins and partition failover copies, which
// must not alias it, are allocated separately and mark the request shared,
// which keeps it from being reused.
type fnProgress struct {
	member  nodeInv
	pending int32 // unfinished predecessors
	done    bool  // a member (or its hedge or failover twin) has completed
}

type nodeInv struct {
	inv *Request
	fs  *fnState

	// Resilience state: how many times this member has failed (crash,
	// timeout or eviction), whether a hedge twin has been launched for it,
	// and whether this member IS the hedge twin.
	attempts int
	hedged   bool
	isHedge  bool

	// span is the member's trace span when a recorder is attached (nil
	// otherwise; all NodeSpan methods are nil-safe).
	span *tracing.NodeSpan
}

// init wires the engine for one run of cfg's application on cfg's cluster;
// cfg has been validated and defaulted (Config.normalized).
func (e *Engine) init(cfg Config, driver Driver) {
	e.cfg, e.driver = cfg, driver
	e.rng = mathx.NewRand(cfg.Seed)
	e.prng = mathx.NewRand(cfg.Seed ^ 0x9e3779b9)
	e.fns = make(map[dag.NodeID]*fnState)
	e.stats = newRunStats(cfg.SLA)
	e.lastTick = math.Inf(1)
	g := cfg.App.Graph
	for i, id := range g.Nodes() {
		spec := cfg.App.Spec(id)
		fs := &fnState{
			id: id, spec: spec, class: placement.ClassOf(spec.Field),
			idx: i, npred: len(g.Predecessors(id)),
			directive: Directive{
				Config: hardware.Config{Kind: hardware.CPU, Cores: 1},
				Policy: coldstart.KeepAlive,
				Batch:  1, Instances: 1, KeepAlive: 60,
			},
		}
		e.fns[id] = fs
		e.fnList = append(e.fnList, fs)
	}
	for _, fs := range e.fnList {
		for _, succ := range g.Successors(fs.id) {
			fs.succs = append(fs.succs, e.fns[succ])
		}
	}
	for _, src := range g.Sources() {
		e.sources = append(e.sources, e.fns[src])
	}
	e.nodes = make([]*nodeState, len(cfg.Cluster.Nodes))
	for i, spec := range cfg.Cluster.Nodes {
		e.nodes[i] = &nodeState{spec: spec, freeCores: spec.Cores, freeGPU: spec.GPUs * 100, health: nodeUp, alive: true}
	}
	// Guard against the typed-nil interface trap: only assign when the
	// injector is actually enabled.
	if in := faults.NewInjector(cfg.Faults); in != nil {
		e.inj = in
	}
}

// --- Run lifecycle ------------------------------------------------------

// begin queues what the run starts with — the first decision-window tick,
// the fault plan's node crashes and partitions, the failure detector's first
// tick when a node can miss heartbeats, the price trace's preemption windows
// — then runs the driver's Setup. Fault and preemption times are offsets
// from the current instant.
func (e *Engine) begin() {
	now := e.now
	e.queueWindow(now + e.cfg.Window)
	nodeFaults := 0
	if e.cfg.Faults != nil {
		nodeFaults = len(e.cfg.Faults.NodeFaults)
		for _, nf := range e.cfg.Faults.NodeFaults {
			switch nf.Kind {
			case faults.NodeCrash:
				e.schedule(now+nf.Start, event{kind: evNodeCrash, idx: int32(nf.Node)})
				if nf.End > nf.Start {
					e.schedule(now+nf.End, event{kind: evNodeRestart, idx: int32(nf.Node)})
				}
			case faults.NodePartition:
				e.schedule(now+nf.Start, event{kind: evPartitionStart, idx: int32(nf.Node)})
				e.schedule(now+nf.End, event{kind: evPartitionEnd, idx: int32(nf.Node)})
			}
		}
	}
	if nodeFaults > 0 || e.churns {
		e.schedule(now+e.cfg.GossipInterval, event{kind: evGossip})
	}
	if e.cfg.PriceTrace != nil {
		for _, w := range e.cfg.PriceTrace.Preemptions {
			e.schedule(now+w.Start, event{kind: evPreempt, idx: int32(w.Node)})
			e.schedule(now+w.End, event{kind: evPreemptEnd, idx: int32(w.Node)})
		}
	}
	e.driver.Setup(e)
}

// queueWindow queues the decision-window tick at at, unless it falls past
// lastTick.
func (e *Engine) queueWindow(at float64) {
	if e.windowAt = at; at <= e.lastTick {
		e.schedule(at, event{kind: evWindow})
	}
}

// arrive admits one application request at the current instant: it is
// logged in the window, reactive pre-warms fire and the entry functions are
// released. budget > 0 bounds it end to end — it fails as deadline-exceeded
// if still unresolved that long after arrival. tag is the front end's own
// index for the request, handed back through Request.Tag. The request is
// a spare one when completeInvocation has left one, with a fresh id.
func (e *Engine) arrive(budget float64, tag int) *Request {
	e.recycleDead()
	now := e.now
	e.arrivalsThisWindow++
	e.arrivalTimes = append(e.arrivalTimes, now)
	var inv *Request
	if n := len(e.spare); n > 0 {
		inv, e.spare = e.spare[n-1], e.spare[:n-1]
	} else {
		inv = &Request{prog: make([]fnProgress, len(e.fnList))}
	}
	*inv = Request{
		id: e.nextInv, tag: int32(tag), arrival: now,
		prog: inv.prog, remaining: int32(len(e.fnList)),
	}
	e.nextInv++
	if e.rec != nil {
		e.rec.BeginRequest(inv.id, now)
	}
	for i, fs := range e.fnList {
		inv.prog[i] = fnProgress{member: nodeInv{inv: inv, fs: fs}, pending: int32(fs.npred)}
	}
	// Reactive pre-warming for functions that request it.
	for _, fs := range e.fnList {
		if fs.directive.PrewarmOnArrival && fs.npred > 0 {
			e.SchedulePrewarm(fs.id, now+fs.directive.PathOffset)
		}
	}
	// Entry functions become ready immediately.
	for _, src := range e.sources {
		e.enqueue(&inv.prog[src.idx].member)
	}
	if budget > 0 {
		inv.deadline = now + budget
		e.schedule(inv.deadline, event{kind: evDeadline, inv: inv, epoch: inv.id})
	}
	return inv
}

// settle ends the run at the current instant: every live container is
// terminated in id order (so float cost accumulation is reproducible) and
// billed up to now, and down time the detector still holds open is settled.
// It returns how many admitted requests never resolved. Builds tagged
// smiless_invariants check that every billed second belongs to exactly one
// container.
func (e *Engine) settle() (unresolved int) {
	owed := e.stats.TotalCost + e.AccruedCost()
	for _, c := range slices.Clone(e.conts) { // terminate edits the list
		e.terminate(c)
	}
	e.dead = nil // the run is over: nothing launches again
	e.checkConservation(owed)
	invariant(len(e.pendingLaunch) == 0, "settle left %d launches pending", len(e.pendingLaunch))
	for _, n := range e.nodes {
		if n.health == nodeDown && n.detectorDown {
			e.stats.NodeDownSeconds += e.now - n.downSince
		}
	}
	unresolved = e.nextInv - e.stats.Completed - e.stats.FailedInvocations
	invariant(unresolved >= 0, "%d requests arrived but %d resolved: some request resolved twice", e.nextInv, e.nextInv-unresolved)
	return unresolved
}

// --- Live front-end surface ---------------------------------------------

// LiveEngine is the Engine as a live front end outside this package (the
// serving runtime) drives it: the front end holds its own lock around every
// call and sets the instant before each one. Drivers are handed the
// embedded Engine, never this surface.
type LiveEngine struct{ Engine }

// InitLive validates and defaults cfg as New does and wires the engine for
// a live front end: cfg's application on cfg's cluster, a batch linger, and
// resolved, which receives every admitted request's outcome once. On more
// than one node the failure detector always runs, since chaos calls can
// fail a node at any time. It returns the effective config.
func (l *LiveEngine) InitLive(cfg Config, driver Driver, linger float64, resolved func(*Request, Outcome)) (Config, error) {
	cfg, err := cfg.normalized(driver)
	if err != nil {
		return cfg, err
	}
	l.init(cfg, driver)
	l.linger, l.resolved, l.churns = linger, resolved, len(cfg.Cluster.Nodes) > 1
	return cfg, nil
}

// Begin queues the first window tick, the scheduled faults and preemptions,
// then runs the driver's Setup (see begin).
func (l *LiveEngine) Begin() { l.begin() }

// SetNow sets the instant the next call runs at.
func (l *LiveEngine) SetNow(t float64) { l.now = t }

// NextAt returns the time of the earliest queued event; ok is false when
// there is none.
func (l *LiveEngine) NextAt() (at float64, ok bool) { return l.events.NextAt() }

// HandleNext handles the earliest queued event at the current instant.
func (l *LiveEngine) HandleNext() {
	_, ev := l.events.Pop()
	l.dispatch(&ev)
}

// EntryBacklog returns the longest ready queue among the entry functions,
// the bound a front end's admission control checks.
func (l *LiveEngine) EntryBacklog() int {
	n := 0
	for _, src := range l.sources {
		n = max(n, src.queue.Len())
	}
	return n
}

// Arrive admits one application request now (see arrive). The returned
// *Request is valid until its outcome has been handed out: once a request
// has completed the engine may reuse the object for a later arrival, so a
// front end that keeps it past resolution must compare ids, not pointers.
func (l *LiveEngine) Arrive(budget float64, tag int) *Request { return l.arrive(budget, tag) }

// Abandon fails an unresolved request whose caller went away. r must be
// the object Arrive returned for that request, not yet resolved: after
// resolution it may stand for another request.
func (l *LiveEngine) Abandon(r *Request) {
	if r.resolved || r.failed {
		return
	}
	l.stats.Abandoned++
	l.failInvocation(r, OutcomeAbandoned)
}

// Settle ends the run now and returns how many requests never resolved (see
// settle).
func (l *LiveEngine) Settle() (unresolved int) { return l.settle() }

// CrashNode kills node i's process now (see onNodeCrash).
func (l *LiveEngine) CrashNode(i int) { l.onNodeCrash(i) }

// RebootNode brings crashed node i back now (see onNodeRestart).
func (l *LiveEngine) RebootNode(i int) { l.onNodeRestart(i) }

// PartitionNode cuts (true) or heals node i's network now.
func (l *LiveEngine) PartitionNode(i int, cut bool) {
	if cut {
		l.onPartitionStart(i)
	} else {
		l.onPartitionEnd(i)
	}
}

// NodeStatus reports node i: the detector's verdict, the ground truth of its
// process and network, and how many live containers are placed on it.
func (l *LiveEngine) NodeStatus(i int) (health string, alive, partitioned bool, containers int) {
	n := l.nodes[i]
	return n.health.String(), n.alive, n.partitioned, n.conts
}

// --- Event dispatch ------------------------------------------------------

func (e *Engine) schedule(at float64, ev event) { e.events.Push(at, ev) }

// dispatch runs recycleDead, then routes one due event to its handler.
// Node-side events (init and exec completions or crashes) from a crashed
// node are dropped — the work died with the process — and from a
// partitioned node they are held and replayed in order, through dispatch,
// when the partition heals. It reports false for a keep-alive entry that
// found its deadline voided or moved: queue bookkeeping, not an event.
func (e *Engine) dispatch(ev *event) bool {
	e.recycleDead()
	if c := ev.c; ev.nodeSide() && c.state != cDead && c.node >= 0 {
		n := e.nodes[c.node]
		if !n.alive {
			return true
		}
		if n.partitioned {
			n.held = append(n.held, *ev)
			return true
		}
	}
	switch ev.kind {
	case evInitDone:
		e.onInitDone(ev.c, ev.epoch)
	case evExecDone:
		e.onExecDone(ev.c, ev.epoch)
	case evIdleTimeout:
		return e.onIdleTimeout(ev.c, ev.epoch)
	case evPrewarm:
		e.onPrewarm(e.fnList[ev.idx])
	case evInitFail:
		e.onInitFail(ev.c, ev.epoch)
	case evExecFail:
		e.onExecFail(ev.c, ev.epoch)
	case evExecTimeout:
		e.onExecTimeout(ev.c, ev.epoch)
	case evHedge:
		e.onHedge(ev.c, ev.epoch)
	case evRetry:
		e.onRetry(ev.ni)
	case evLinger:
		e.onLinger(e.fnList[ev.idx], ev.epoch)
	case evWindow:
		e.onWindow()
	case evDeadline:
		e.onDeadline(ev.inv, ev.epoch)
	case evGossip:
		e.onGossip()
	case evNodeCrash:
		e.onNodeCrash(int(ev.idx))
	case evNodeRestart:
		e.onNodeRestart(int(ev.idx))
	case evPartitionStart:
		e.onPartitionStart(int(ev.idx))
	case evPartitionEnd:
		e.onPartitionEnd(int(ev.idx))
	case evPreempt:
		e.onPreempt(int(ev.idx))
	case evPreemptEnd:
		e.onPreemptEnd(int(ev.idx))
	}
	return true
}

// onWindow closes one decision window: the next tick is queued, the arrival
// count is logged, the driver re-decides and the fleet is sampled.
func (e *Engine) onWindow() {
	e.queueWindow(e.windowAt + e.cfg.Window)
	e.counts = append(e.counts, e.arrivalsThisWindow)
	e.arrivalsThisWindow = 0
	guard := e.guardHistory()
	e.driver.OnWindow(e, e.now)
	guard.check(e)
	e.samplePods()
}

// samplePods records pod-count and backend-usage series each window, after
// onWindow has logged its arrival count.
func (e *Engine) samplePods() {
	cpuPods, gpuPods := 0, 0
	for _, c := range e.conts {
		if c.cfg.Kind == hardware.CPU {
			cpuPods++
		} else {
			gpuPods++
		}
	}
	e.stats.PodSamples = append(e.stats.PodSamples, PodSample{
		Time: e.now, CPU: cpuPods, GPU: gpuPods, Arrivals: e.counts[len(e.counts)-1],
	})
}
