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
	// The slot tables events name their targets in (see Ref), and the
	// containers terminated since the last top-level entry (recycleDead).
	contSlots slots[container]
	reqSlots  slots[Request]
	copySlots slots[nodeInv]
	dead      []*container

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

// eventKind discriminates queued events. The container events come first:
// up to evExecFail the completions and failures the container's own node
// emits — lost with a crashed node, delayed by a partition — then the
// gateway-side timers (timeouts, hedges, idle reaping), which the control
// plane runs regardless of node reachability. A batch's events run from
// evExecDone to evHedge.
type eventKind uint8

const (
	evInitDone       eventKind = iota // container finished initializing
	evInitFail                        // injected crash mid-initialization
	evExecDone                        // container finished a batch
	evExecFail                        // injected crash mid-execution
	evExecTimeout                     // gateway per-attempt timeout fired
	evHedge                           // hedge point for a slow single execution
	evIdleTimeout                     // keep-alive queue entry due
	evPrewarm                         // scheduled pre-warm point
	evRetry                           // backed-off retry becomes ready
	evRetryCopy                       // a failover copy's retry becomes ready
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

// event is one queued occurrence, 16 bytes and no pointer. ref names the
// life it was queued for — a container's, a request's, a failover copy's in
// backoff, or a linger window (slot: the function, gen: its lingerEpoch) —
// and dispatch drops the event once that life has ended. idx is a node
// event's node, a pre-warm event's or a request retry's function (its graph
// index), a batch event's batchSeq or an idle entry's timerGen.
type event struct {
	kind eventKind
	idx  int32
	ref  Ref
}

// Ref names one life of a slot in one of the engine's slot tables: a
// container's from launch to termination, a request's from arrival to
// resolution. Ending a life moves the slot's generation on, so a ref to an
// ended life resolves to nothing, however often the slot is reused since.
type Ref struct {
	slot int32
	gen  uint32
}

// Slot is the slot the ref names. Live requests hold distinct slots, which
// are dense from 0, so a front end can index its own per-request state by it.
func (r Ref) Slot() int { return int(r.slot) }

// slots is a slot table. Each slot keeps its object from one life to the
// next (unless a life ends without keep) and the generation of its current
// life; the vacant slots form a stack linked through the table, so neither
// opening nor closing a life allocates once the table has grown.
type slots[T any] struct {
	s    []slot[T]
	free int32 // the last vacated slot plus one; 0: none
}

type slot[T any] struct {
	obj  *T
	gen  uint32
	next int32 // while vacant: the slot vacated before it, as free
}

// get returns the object of r's life, or nil once that life has ended.
func (t *slots[T]) get(r Ref) *T {
	if s := &t.s[r.slot]; s.gen == r.gen {
		return s.obj
	}
	return nil
}

// open starts a life in the last vacated slot, or a new one, and returns its
// ref and the slot's object, which the caller sets when it is nil.
func (t *slots[T]) open() (Ref, **T) {
	i := t.free - 1
	if i < 0 {
		i = int32(len(t.s))
		t.s = append(t.s, slot[T]{})
	} else {
		t.free = t.s[i].next
	}
	s := &t.s[i]
	return Ref{i, s.gen}, &s.obj
}

// close ends r's life and vacates its slot; without keep the object goes to
// the GC.
func (t *slots[T]) close(r Ref, keep bool) {
	s := &t.s[r.slot]
	s.gen++
	if !keep {
		s.obj = nil
	}
	s.next, t.free = t.free, r.slot+1
}

// container states.
const (
	cInitializing = iota
	cIdle
	cBusy
	cDead
)

// container is one instance: one life, named by ref, of a slot of
// Engine.contSlots, whose next life reuses the object. batchSeq and timerGen
// start from zero each life and order the events within it.
type container struct {
	ref       Ref
	id        int
	fn        *fnState
	cfg       hardware.Config
	state     int
	initStart float64
	batchSeq  int32 // the running batch: its completion, timeout and hedge events carry it
	// Keep-alive: idleAt is the deadline of the last armIdleTimer and
	// idleTicket its same-instant rank; idleArmed drops when a batch starts.
	// At most one queue entry per container is live — push timerGen, due at
	// timerAt (+Inf: none) — and it re-pushes itself when the deadline has
	// moved later by the time it fires.
	idleAt     float64
	idleTicket uint64
	timerAt    float64
	timerGen   int32
	node       int // -1 while the launch waits for capacity
	// assigned waits to run when init completes, batch is executing; at most
	// one of them is non-empty, and they pass one backing array back and
	// forth (startBatch builds the batch in assigned's, onExecDone hands it
	// back), so a warm container dispatches without allocating.
	assigned []*nodeInv
	batch    []*nodeInv
	// idleArmed: see Keep-alive; prewarmed: launched by a pre-warm, not by a
	// waiting request.
	idleArmed, prewarmed bool
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
	// until the queue fills the batch or the linger deadline passes. Each
	// arming and each dispatch moves lingerEpoch on, so a linger event fires
	// only for the window it was queued for.
	lingerArmed   bool
	lingerEpoch   uint32
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

// Request is one admitted application request, one life of a slot of
// Engine.reqSlots from arrival to resolution. Its fields are sized to keep it
// in a 64-byte allocation; prog, with every function's primary member
// embedded, is its one other. A completed, unshared request leaves both in
// its slot for the next arrival (resolve); any other goes to the GC.
type Request struct {
	id        int
	arrival   float64
	deadline  float64      // absolute; 0 = unbounded
	prog      []fnProgress // by function index
	remaining int32        // unfinished functions
	ref       Ref
	failed    bool // a member exhausted its retries, or the request was dropped
	resolved  bool // completed or failed: the outcome has been handed out
	// shared marks a request a hedge twin or a partition failover copy
	// points at: a second nodeInv that may outlive its completion.
	shared bool
}

// ID is the request's engine-assigned id (it matches tracing spans).
func (r *Request) ID() int { return r.id }

// Ref names the request's life, which ends when it resolves.
func (r *Request) Ref() Ref { return r.ref }

// Arrival is the instant the request was admitted.
func (r *Request) Arrival() float64 { return r.arrival }

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
// if still unresolved that long after arrival. The request takes the last
// vacated slot, and the object a completed request left there.
func (e *Engine) arrive(budget float64) *Request {
	e.recycleDead()
	now := e.now
	e.arrivalsThisWindow++
	e.arrivalTimes = append(e.arrivalTimes, now)
	ref, obj := e.reqSlots.open()
	if *obj == nil {
		*obj = &Request{prog: make([]fnProgress, len(e.fnList))}
	}
	inv := *obj
	*inv = Request{
		id: e.nextInv, ref: ref, arrival: now,
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
		e.schedule(inv.deadline, event{kind: evDeadline, ref: ref})
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

// Arrive admits one application request now (see arrive); its outcome comes
// from a later call. The *Request is the request's until its outcome has been
// handed out; a front end that names the request longer keeps its Ref.
func (l *LiveEngine) Arrive(budget float64) *Request { return l.arrive(budget) }

// Abandon fails the request r names, whose caller went away; it does
// nothing once that request has resolved.
func (l *LiveEngine) Abandon(r Ref) {
	if inv := l.reqSlots.get(r); inv != nil {
		l.stats.Abandoned++
		l.failInvocation(inv, OutcomeAbandoned)
	}
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

// dispatch runs recycleDead, then routes one due event to its handler. An
// event whose ref names a life that has ended is dropped here, as is a batch
// event for a batch that is over and an idle entry a later push superseded:
// no handler checks staleness. Node-side events (init and exec completions
// or crashes) from a crashed node are dropped — the work died with the
// process — and from a partitioned node they are held and replayed in order,
// through dispatch, when the partition heals. It reports false for a
// keep-alive entry that found its deadline voided, moved or its container
// gone: queue bookkeeping, not an event.
func (e *Engine) dispatch(ev *event) bool {
	e.recycleDead()
	if ev.kind <= evIdleTimeout { // a container event
		c := e.contSlots.get(ev.ref)
		switch {
		case c == nil: // the container's life has ended
			return ev.kind != evIdleTimeout
		case ev.kind == evIdleTimeout: // unless a later push superseded it
			return c.timerGen == ev.idx && e.onIdleTimeout(c)
		case ev.kind >= evExecDone && (c.state != cBusy || c.batchSeq != ev.idx):
			return true // its batch is over
		}
		if ev.kind <= evExecFail { // node-side
			if n := e.nodes[c.node]; !n.alive {
				return true
			} else if n.partitioned {
				n.held = append(n.held, *ev)
				return true
			}
		}
		switch ev.kind {
		case evInitDone:
			e.onInitDone(c)
		case evInitFail:
			e.onInitFail(c)
		case evExecDone:
			e.onExecDone(c)
		case evExecFail:
			e.onExecFail(c)
		case evExecTimeout:
			e.onExecTimeout(c)
		case evHedge:
			e.onHedge(c)
		}
		return true
	}
	switch ev.kind {
	case evPrewarm:
		e.onPrewarm(e.fnList[ev.idx])
	case evRetry:
		if inv := e.reqSlots.get(ev.ref); inv != nil {
			e.onRetry(&inv.prog[ev.idx].member)
		}
	case evRetryCopy:
		ni := e.copySlots.get(ev.ref)
		e.copySlots.close(ev.ref, false)
		e.onRetry(ni)
	case evLinger:
		if fs := e.fnList[ev.ref.slot]; fs.lingerEpoch == ev.ref.gen {
			e.onLinger(fs)
		}
	case evWindow:
		e.onWindow()
	case evDeadline:
		if inv := e.reqSlots.get(ev.ref); inv != nil {
			e.onDeadline(inv)
		}
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
