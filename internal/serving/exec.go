// Executor pool state machine: a port of the simulator's container
// lifecycle (internal/simulator/sim.go) onto the serving runtime's
// clock-driven event loop. Every handler runs under rt.mu, invoked either
// by the scheduler loop or inline from Invoke. Divergences from the
// simulator are limited to what a live elastic substrate removes: there is
// no per-node capacity model (launches always place on the node the
// locality/p2c layer picks — see node.go) and no GPU co-location
// contention. Everything else — cold starts, keep-alive epochs, pre-warms,
// batch formation, retries with backoff, timeouts, hedging, node crashes
// and partitions, fault injection — matches the simulator line for line,
// plus the active batch-linger window of Config.BatchLinger and
// per-request deadlines/abandonment.
package serving

import (
	"math"
	"math/rand"
	"slices"

	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/eventq"
	"smiless/internal/hardware"
	"smiless/internal/placement"
	"smiless/internal/simulator"
	"smiless/internal/tracing"
)

// container states.
const (
	cInitializing = iota
	cIdle
	cBusy
	cDead
)

type container struct {
	id        int
	fn        *fnState
	cfg       hardware.Config
	node      int // node agent the instance is placed on
	state     int
	initStart float64
	batchSeq  int // validates in-flight timeout/hedge/failure events
	// Keep-alive, as in the simulator: idleAt is the deadline of the last
	// armIdleTimer and idleTicket its same-instant rank; idleArmed drops
	// when a batch starts. At most one queue entry per container is live —
	// generation timerGen, due at timerAt (+Inf: none) — and it re-pushes
	// itself when the deadline has moved later by the time it fires.
	idleAt     float64
	idleTicket uint64
	idleArmed  bool
	timerAt    float64
	timerGen   int
	// assigned waits for the container to become ready, batch is executing;
	// at most one of them is non-empty, and they pass one backing array back
	// and forth (startBatch builds the batch in assigned's, onExecDone hands
	// it back), so a warm container dispatches without allocating.
	assigned  []*nodeInv
	batch     []*nodeInv
	prewarmed bool
}

// latWindow is the per-function ring of recent execution durations backing
// ExecLatencyQuantile.
const latWindow = 64

type fnState struct {
	id   dag.NodeID
	spec specSampler
	// class is the function's interference class (derived from the spec's
	// Field at construction; test fakes default to the general class).
	class     placement.Class
	directive simulator.Directive
	// Topology, fixed in New: position in graph order, predecessor count and
	// successors, so the request path never asks the dag.Graph.
	idx   int
	npred int
	succs []*fnState
	// containers holds the live instances in id order: the first match of a
	// scan is the lowest id, and its length is the live count.
	containers []*container
	queue      eventq.FIFO[*nodeInv]

	// Batch-linger state: while armed, dispatch onto idle instances is
	// held until the queue fills the batch or the linger deadline passes.
	lingerArmed   bool
	lingerEpoch   int
	lingerExpired bool

	execLat   []float64
	latPos    int
	initFails int
	execFails int
	successes int
}

// specSampler is the slice of apps.FunctionSpec the executor needs; an
// interface so tests can install fixed-latency fakes.
type specSampler interface {
	SampleInference(r *rand.Rand, cfg hardware.Config, batch int) float64
	SampleInit(r *rand.Rand, cfg hardware.Config) float64
}

func (f *fnState) recordLatency(d float64) {
	if len(f.execLat) < latWindow {
		f.execLat = append(f.execLat, d)
		return
	}
	f.execLat[f.latPos] = d
	f.latPos = (f.latPos + 1) % latWindow
}

func (f *fnState) liveCount() int { return len(f.containers) }

type appInv struct {
	id        int
	arrival   float64
	deadline  float64      // absolute model time; 0 = unbounded
	prog      []fnProgress // by function index
	remaining int
	failed    bool
	resolved  bool
	resCh     chan Result
	// unwatch withdraws the abandon-on-cancel registration on the caller's
	// context; nil when that context cannot be cancelled.
	unwatch func() bool
}

// fnProgress is one function's progress within a request.
type fnProgress struct {
	pending int32 // unfinished predecessors
	done    bool  // a member (or its hedge or failover twin) has completed
}

type nodeInv struct {
	inv     *appInv
	fs      *fnState
	readyAt float64

	attempts int
	hedged   bool
	isHedge  bool

	span *tracing.NodeSpan
}

// enqueue adds a ready node invocation and attempts dispatch.
func (rt *Runtime) enqueue(ni *nodeInv) {
	if rt.rec != nil && ni.span == nil {
		ni.span = rt.rec.BeginNode(ni.inv.id, string(ni.fs.id), rt.now, ni.isHedge)
	}
	fs := ni.fs
	fs.queue.Push(ni)
	rt.pump(fs)
}

// pump dispatches queued invocations onto available containers, launching
// new instances when the directive allows. Port of the simulator's pump
// with one insertion: step 1 consults the batch-linger window before
// dispatching onto an idle instance.
func (rt *Runtime) pump(fs *fnState) {
	for fs.queue.Len() > 0 {
		d := fs.directive
		// 1. An idle warm container — unless the batch window holds.
		if c := rt.pickIdle(fs); c != nil {
			if rt.holdForBatch(fs) {
				return
			}
			rt.startBatch(c, tracing.PhaseQueue)
			continue
		}
		// 2. Busy warm containers absorb small overlaps: joining the next
		// batch costs at most one inference cycle, which beats waiting
		// out a cold initialization on a fresh instance. Containers on a
		// node the detector has taken out of service don't count: work
		// must not queue behind an unreachable instance.
		busy := 0
		for _, c := range fs.containers {
			if c.state == cBusy && rt.routable(c) {
				busy++
			}
		}
		if busy > 0 && fs.queue.Len() <= busy*d.Batch {
			return
		}
		// 3. An initializing container with spare assignment capacity.
		if c := rt.pickInitializing(fs); c != nil {
			assign(c, d.Batch-len(c.assigned))
			continue
		}
		// 4. Launch a new instance if under the cap. Instances stranded on
		// non-up nodes don't hold the cap: a failed-over member must be able
		// to launch a replacement while the original is unreachable.
		if rt.routableCount(fs) < d.Instances {
			assign(rt.launch(fs, d.Config, false), d.Batch)
			continue
		}
		// 5. Saturated: wait for a container to free up.
		return
	}
}

// assign binds up to n queued invocations to an initializing container.
func assign(c *container, n int) {
	for ; n > 0 && c.fn.queue.Len() > 0; n-- {
		c.assigned = append(c.assigned, c.fn.queue.Pop())
	}
}

// holdForBatch reports whether dispatch onto an idle instance should wait
// for the batch aggregation window (§V-D): the directive wants batches, the
// queue has not filled one, and the linger deadline has not passed. The
// first held request arms a timer; onLinger releases the partial batch.
func (rt *Runtime) holdForBatch(fs *fnState) bool {
	d := fs.directive
	if d.Batch <= 1 || rt.cfg.BatchLinger <= 0 {
		return false
	}
	if fs.queue.Len() >= d.Batch {
		return false // full batch: dispatch immediately
	}
	if fs.lingerExpired {
		return false // window closed: dispatch the partial batch
	}
	if !fs.lingerArmed {
		fs.lingerArmed = true
		fs.lingerEpoch++
		rt.schedule(rt.now+rt.cfg.BatchLinger, event{kind: evLinger, fs: fs, epoch: fs.lingerEpoch})
	}
	return true
}

// onLinger fires when a batch aggregation window expires: whatever is
// queued dispatches as a partial batch.
func (rt *Runtime) onLinger(fs *fnState, epoch int) {
	if !fs.lingerArmed || fs.lingerEpoch != epoch {
		return
	}
	fs.lingerArmed = false
	fs.lingerExpired = true
	rt.pump(fs)
	fs.lingerExpired = false
}

// pickIdle returns the lowest-id idle container on a routable node.
func (rt *Runtime) pickIdle(fs *fnState) *container {
	for _, c := range fs.containers {
		if c.state == cIdle && rt.routable(c) {
			return c
		}
	}
	return nil
}

func (rt *Runtime) pickInitializing(fs *fnState) *container {
	for _, c := range fs.containers {
		if c.state == cInitializing && rt.routable(c) && len(c.assigned) < fs.directive.Batch {
			return c
		}
	}
	return nil
}

// routable reports whether the control plane will dispatch new work to this
// container: its node must be up in the detector's view. On a single-node
// runtime without node faults the node is permanently up, so this is always
// true and dispatch is byte-identical to the pre-node runtime.
func (rt *Runtime) routable(c *container) bool {
	return rt.nodes[c.node].health == nodeUp
}

// routableCount is liveCount restricted to routable containers: the instance
// cap the dispatcher plans against. Instances stranded behind a down or
// partitioned node still exist (and bill) but don't occupy cap.
func (rt *Runtime) routableCount(fs *fnState) int {
	n := 0
	for _, c := range fs.containers {
		if rt.routable(c) {
			n++
		}
	}
	return n
}

// launch starts a new container (cold start) on the node the placement
// layer picks. Each node's substrate is elastic: placement always succeeds,
// but the chosen node may later crash or partition away with the instance.
func (rt *Runtime) launch(fs *fnState, cfg hardware.Config, prewarmed bool) *container {
	c := &container{
		id: rt.nextCont, fn: fs, cfg: cfg, node: rt.placeNode(fs),
		state: cInitializing, initStart: rt.now, prewarmed: prewarmed,
		timerAt: math.Inf(1),
	}
	rt.nextCont++
	fs.containers = append(fs.containers, c) // ids only grow: both lists stay ordered
	rt.conts = append(rt.conts, c)
	rt.nodes[c.node].conts++
	rt.stats.Inits++
	rt.beginInit(c)
	return c
}

// beginInit samples the initialization duration and schedules its
// completion — or, under fault injection, its crash partway through.
func (rt *Runtime) beginInit(c *container) {
	if rt.rec != nil {
		rt.rec.BeginInit(c.id, string(c.fn.id), c.cfg.String(), c.node, rt.now, c.prewarmed)
	}
	dur := c.fn.spec.SampleInit(rt.rng, c.cfg)
	if rt.cfg.Interference != nil {
		if f := rt.interferenceFactor(c); f > 1 {
			rt.stats.InterferedInits++
			rt.stats.InterferenceSeconds += dur * (f - 1)
			dur *= f
		}
	}
	if rt.inj != nil {
		if fail, frac := rt.inj.InitOutcome(string(c.fn.id)); fail {
			rt.schedule(rt.now+dur*frac, event{kind: evInitFail, c: c})
			return
		}
	}
	rt.schedule(rt.now+dur, event{kind: evInitDone, c: c})
}

func (rt *Runtime) onInitDone(c *container) {
	if c.state != cInitializing {
		return
	}
	c.state = cIdle
	rt.stats.WarmStarts++
	fs := c.fn
	if rt.rec != nil {
		rt.rec.EndInit(c.id, rt.now, len(c.assigned) > 0, false)
	}
	if len(c.assigned) > 0 {
		// Work waited for this initialization: the cold start was on the
		// request path.
		rt.stats.InitGated++
		rt.startBatch(c, tracing.PhaseColdInit)
		if c.state == cIdle {
			// Only reachable under fault injection: every assigned member
			// failed before the init completed.
			rt.armIdleTimer(c)
			rt.pump(fs)
		}
		return
	}
	rt.armIdleTimer(c)
	rt.pump(fs)
}

// onInitFail handles an injected crash during initialization: the partial
// init time is still billed, assigned work returns to the queue, and pump
// relaunches.
func (rt *Runtime) onInitFail(c *container) {
	if c.state != cInitializing {
		return
	}
	rt.stats.InitFailures++
	c.fn.initFails++
	fs := c.fn
	rt.terminate(c)
	rt.pump(fs)
}

// startBatch moves assigned/queued work onto the container and runs it.
func (rt *Runtime) startBatch(c *container, cause tracing.Phase) {
	fs := c.fn
	d := fs.directive
	// Any dispatch from this function closes its aggregation window.
	fs.lingerArmed = false
	fs.lingerEpoch++
	batch := c.assigned[:0]
	for _, ni := range c.assigned {
		if !ni.inv.failed {
			batch = append(batch, ni)
		}
	}
	c.assigned = nil
	for len(batch) < d.Batch && fs.queue.Len() > 0 {
		if ni := fs.queue.Pop(); !ni.inv.failed {
			batch = append(batch, ni)
		}
	}
	if len(batch) == 0 {
		return
	}
	now := rt.now
	c.state = cBusy
	c.batch = batch
	c.idleArmed = false // the keep-alive deadline is void until re-armed
	c.batchSeq++        // validates timeout/hedge/crash events for this batch
	if rt.rec != nil {
		for _, ni := range batch {
			ni.span.Dispatch(now, cause, c.initStart, c.id,
				c.cfg.String(), d.Policy.String(), len(batch))
		}
		rt.rec.BeginExec(c.id, string(fs.id), c.cfg.String(), c.node, now, len(batch))
	}
	dur := fs.spec.SampleInference(rt.rng, c.cfg, len(batch))
	if rt.cfg.Interference != nil {
		if f := rt.interferenceFactor(c); f > 1 {
			rt.stats.InterferedBatches++
			rt.stats.InterferenceSeconds += dur * (f - 1)
			dur *= f
		}
	}
	if rt.inj != nil {
		if f := rt.inj.StragglerFactor(string(fs.id)); f > 1 {
			dur *= f
			rt.stats.Stragglers++
		}
	}
	fs.recordLatency(dur)
	rt.stats.Executions++
	rt.stats.BatchSum += len(batch)
	if rt.inj != nil {
		if fail, frac := rt.inj.ExecOutcome(string(fs.id)); fail {
			rt.schedule(now+dur*frac, event{kind: evExecFail, c: c, epoch: c.batchSeq})
			return
		}
	}
	rt.schedule(now+dur, event{kind: evExecDone, c: c, epoch: c.batchSeq})
	if t := d.Retry.Timeout; t > 0 && dur > t {
		rt.schedule(now+t, event{kind: evExecTimeout, c: c, epoch: c.batchSeq})
	}
	if h := d.HedgeDelay; h > 0 && len(batch) == 1 && dur > h &&
		!batch[0].isHedge && !batch[0].hedged {
		rt.schedule(now+h, event{kind: evHedge, c: c, epoch: c.batchSeq})
	}
}

func (rt *Runtime) onExecDone(c *container, epoch int) {
	if c.state != cBusy || c.batchSeq != epoch {
		return
	}
	batch := c.batch
	c.batch = nil
	c.state = cIdle
	fs := c.fn
	now := rt.now
	if rt.rec != nil {
		rt.rec.EndExec(c.id, now, false)
	}

	// Complete each member and release successors. A member whose request
	// already failed, or whose node a hedge twin finished first, is
	// discarded (first completion wins).
	counted := false
	for _, ni := range batch {
		inv := ni.inv
		if inv.failed || inv.prog[fs.idx].done {
			ni.span.Finish(now, false)
			continue
		}
		ni.span.Finish(now, true)
		if ni.isHedge {
			rt.stats.HedgesWon++
		}
		if !counted {
			fs.successes++
			counted = true
		}
		inv.prog[fs.idx].done = true
		inv.remaining--
		invariant(inv.remaining >= 0, "request %d finished more members than its DAG has: remaining %d", inv.id, inv.remaining)
		for _, succ := range fs.succs {
			p := &inv.prog[succ.idx]
			p.pending--
			invariant(p.pending >= 0, "request %d released successor %s more times than it has predecessors", inv.id, succ.id)
			if p.pending == 0 {
				rt.enqueue(&nodeInv{inv: inv, fs: succ, readyAt: now})
			}
		}
		if inv.remaining == 0 {
			rt.completeInvocation(inv)
		}
	}

	// The batch is done with its backing array: the next one is built in it.
	clear(batch)
	c.assigned = batch[:0]
	if fs.queue.Len() > 0 {
		rt.startBatch(c, tracing.PhaseBatchWait)
		return
	}
	switch fs.directive.Policy {
	case coldstart.Prewarm, coldstart.NoMitigation:
		rt.terminate(c)
	case coldstart.KeepAlive:
		rt.armIdleTimer(c)
	case coldstart.AlwaysOn:
		// Stays resident; no timer.
	}
}

// interferenceFactor returns the configured model's slowdown for container
// c against the other live containers on its node, visited in id order for
// reproducible accumulation.
func (rt *Runtime) interferenceFactor(c *container) float64 {
	var residents []placement.Resident
	for _, o := range rt.conts {
		if o == c || o.node != c.node {
			continue
		}
		residents = append(residents, placement.Resident{
			Class: o.fn.class,
			MemBW: placement.DemandOf(o.cfg).MemBW,
		})
	}
	return rt.cfg.Interference.Slowdown(c.fn.class, residents)
}

// abortBatch terminates a container whose batch crashed or timed out, then
// routes each in-flight member through the retry policy.
func (rt *Runtime) abortBatch(c *container) {
	members := c.batch
	c.batch = nil
	fs := c.fn
	now := rt.now
	for _, ni := range members {
		ni.span.Fail(now)
	}
	rt.terminate(c)
	for _, ni := range members {
		rt.retryMember(fs, ni)
	}
	rt.pump(fs)
}

func (rt *Runtime) onExecFail(c *container, epoch int) {
	if c.state != cBusy || c.batchSeq != epoch {
		return
	}
	rt.stats.ExecFailures++
	c.fn.execFails++
	rt.abortBatch(c)
}

func (rt *Runtime) onExecTimeout(c *container, epoch int) {
	if c.state != cBusy || c.batchSeq != epoch {
		return
	}
	rt.stats.Timeouts++
	c.fn.execFails++
	rt.abortBatch(c)
}

// retryMember routes one failed batch member through the function's retry
// policy: re-enqueue after backoff while attempts remain, otherwise the
// whole request fails.
func (rt *Runtime) retryMember(fs *fnState, ni *nodeInv) {
	if ni.inv.failed || ni.isHedge || ni.inv.prog[fs.idx].done {
		return
	}
	ni.attempts++
	pol := fs.directive.Retry
	if !pol.Allow(ni.attempts) {
		rt.failInvocation(ni.inv)
		return
	}
	rt.stats.Retries++
	ni.hedged = false
	var u float64
	if rt.inj != nil {
		u = rt.inj.Jitter()
	} else {
		u = rt.rng.Float64()
	}
	delay := pol.Backoff(ni.attempts, u)
	// Respect the request's deadline: a retry that cannot become ready
	// before it is pointless — fail now as deadline-exceeded rather than
	// scheduling dead work.
	now := rt.now
	if dl := ni.inv.deadline; dl > 0 && now+delay >= dl {
		rt.stats.DeadlineExceeded++
		rt.dropInvocation(ni.inv, Result{
			ReqID: ni.inv.id, Arrival: ni.inv.arrival, End: now,
			E2E: now - ni.inv.arrival, Failed: true, DeadlineExceeded: true,
		})
		return
	}
	if delay <= 0 {
		ni.readyAt = now
		rt.enqueue(ni)
		return
	}
	ni.span.Backoff(now, now+delay)
	rt.schedule(now+delay, event{kind: evRetry, ni: ni})
}

// failInvocation marks a request permanently failed (retries exhausted) and
// resolves its Result channel.
func (rt *Runtime) failInvocation(inv *appInv) {
	if inv.failed {
		return
	}
	now := rt.now
	rt.dropInvocation(inv, Result{
		ReqID: inv.id, Arrival: inv.arrival, End: now,
		E2E: now - inv.arrival, Failed: true,
	})
}

// dropInvocation is the shared terminal-failure path (retries exhausted,
// deadline exceeded, caller abandoned): mark the request failed, purge its
// remaining members from every function queue, and resolve — which frees
// the admission slot. Callers hold mu and have already bumped their
// cause-specific counter.
func (rt *Runtime) dropInvocation(inv *appInv, res Result) {
	if inv.failed || inv.resolved {
		return
	}
	inv.failed = true
	rt.stats.FailedInvocations++
	if rt.rec != nil {
		rt.rec.FailRequest(inv.id, res.End)
	}
	for _, fs := range rt.fnList {
		if fs.queue.Len() > 0 {
			fs.queue.Filter(func(ni *nodeInv) bool { return ni.inv != inv })
		}
	}
	rt.resolve(inv, res)
}

// onRetry re-enqueues a backed-off member once its delay elapses.
func (rt *Runtime) onRetry(ni *nodeInv) {
	if ni.inv.failed || ni.inv.prog[ni.fs.idx].done {
		return
	}
	ni.readyAt = rt.now
	rt.enqueue(ni)
}

// onHedge duplicates a slow single-member execution onto a second warm
// instance; the first completion wins.
func (rt *Runtime) onHedge(c *container, epoch int) {
	if c.state != cBusy || c.batchSeq != epoch || len(c.batch) != 1 {
		return
	}
	primary := c.batch[0]
	if primary.inv.failed || primary.hedged || primary.isHedge || primary.inv.prog[c.fn.idx].done {
		return
	}
	h := rt.pickIdle(c.fn)
	if h == nil {
		return // no spare warm instance: hedging never launches cold starts
	}
	primary.hedged = true
	twin := &nodeInv{inv: primary.inv, fs: c.fn, readyAt: rt.now, isHedge: true}
	if rt.rec != nil {
		twin.span = rt.rec.BeginNode(primary.inv.id, string(c.fn.id), rt.now, true)
	}
	rt.stats.HedgesLaunched++
	h.assigned = append(h.assigned, twin)
	rt.startBatch(h, tracing.PhaseQueue)
}

// armIdleTimer sets the container's keep-alive deadline from the directive
// in force now. Under AlwaysOn nothing is armed — and nothing is disarmed: a
// deadline that survived since the last batch stays live.
func (rt *Runtime) armIdleTimer(c *container) {
	d := c.fn.directive
	if d.Policy == coldstart.AlwaysOn {
		return
	}
	ka := d.KeepAlive
	if ka <= 0 {
		// Grace period for drivers that leave KeepAlive unset.
		ka = 10 * rt.cfg.Window
	}
	c.idleAt, c.idleTicket, c.idleArmed = rt.now+ka, rt.events.Ticket(), true
	if c.idleAt < c.timerAt {
		// No entry is queued, or a directive cut KeepAlive under the one
		// that is: queue one for this deadline, superseding it.
		rt.pushIdleTimer(c)
	}
}

func (rt *Runtime) pushIdleTimer(c *container) {
	c.timerGen++
	c.timerAt = c.idleAt
	rt.events.PushTicket(c.idleAt, c.idleTicket, event{kind: evIdleTimeout, c: c, epoch: c.timerGen})
}

func (rt *Runtime) onIdleTimeout(c *container, gen int) {
	if gen != c.timerGen || c.state == cDead {
		return // superseded by an entry for an earlier deadline
	}
	c.timerAt = math.Inf(1)
	if !c.idleArmed || c.state != cIdle {
		return // a batch ran since the deadline was armed
	}
	if c.idleAt > rt.now {
		rt.pushIdleTimer(c) // re-armed for later while this entry waited
		return
	}
	if c.fn.liveCount() <= c.fn.directive.MinWarm {
		rt.armIdleTimer(c) // floor reached: stay resident, check again later
		return
	}
	rt.terminate(c)
}

func (rt *Runtime) terminate(c *container) {
	if c.state == cDead {
		return
	}
	if rt.rec != nil {
		rt.rec.ContainerGone(c.id, rt.now)
	}
	// Requeue any assigned-but-unstarted work.
	if len(c.assigned) > 0 {
		c.fn.queue.PushFront(c.assigned)
		c.assigned = nil
	}
	c.state = cDead
	life, cost := rt.billedLife(c, rt.now)
	rt.stats.AddCost(string(c.fn.id), c.cfg, life, cost)
	rt.nodes[c.node].conts--
	c.fn.containers = dropContainer(c.fn.containers, c)
	rt.conts = dropContainer(rt.conts, c)
}

// dropContainer removes c from an id-ordered container list, keeping order.
func dropContainer(cs []*container, c *container) []*container {
	i := slices.Index(cs, c)
	return slices.Delete(cs, i, i+1)
}

func (rt *Runtime) completeInvocation(inv *appInv) {
	invariant(!inv.resolved && !inv.failed, "request %d completed twice (resolved=%t failed=%t): done-map dedup broke", inv.id, inv.resolved, inv.failed)
	now := rt.now
	e2e := now - inv.arrival
	rt.stats.Completed++
	var bd tracing.Breakdown
	if rt.rec != nil {
		bd = rt.rec.CompleteRequest(inv.id, now)
	}
	rt.stats.E2E = append(rt.stats.E2E, e2e)
	rt.stats.E2EArrival = append(rt.stats.E2EArrival, inv.arrival)
	violated := e2e > rt.cfg.SLA
	if violated {
		rt.stats.Violations++
		if rt.rec != nil && bd.Blamed != "" {
			if rt.stats.ViolationByFn == nil {
				rt.stats.ViolationByFn = make(map[string]int)
			}
			rt.stats.ViolationByFn[bd.Blamed]++
		}
	}
	if rt.rec != nil {
		rt.stats.QueueOnPathSeconds += bd.Phases[tracing.PhaseQueue] + bd.Phases[tracing.PhaseBatchWait]
		rt.stats.InitOnPathSeconds += bd.Phases[tracing.PhaseColdInit]
		rt.stats.ExecOnPathSeconds += bd.Phases[tracing.PhaseExec]
		rt.stats.RetryOnPathSeconds += bd.Phases[tracing.PhaseFailedAttempt] + bd.Phases[tracing.PhaseBackoff]
	}
	rt.resolve(inv, Result{
		ReqID: inv.id, Arrival: inv.arrival, End: now,
		E2E: e2e, SLAViolated: violated,
	})
}

func (rt *Runtime) onPrewarm(fs *fnState) {
	terminating := fs.directive.Policy == coldstart.Prewarm || fs.directive.Policy == coldstart.NoMitigation
	for _, c := range fs.containers {
		switch c.state {
		case cIdle, cInitializing:
			return
		case cBusy:
			if !terminating {
				return
			}
		}
	}
	if fs.liveCount() >= fs.directive.Instances {
		return
	}
	rt.launch(fs, fs.directive.Config, true)
}

// resolve delivers a request's terminal Result and settles drain
// accounting. The channel is buffered, so delivery never blocks the loop.
func (rt *Runtime) resolve(inv *appInv, res Result) {
	if inv.resolved {
		return
	}
	inv.resolved = true
	rt.inflight--
	invariant(rt.inflight >= 0, "admission accounting went negative: inflight %d after resolving request %d", rt.inflight, inv.id)
	if inv.resCh != nil {
		inv.resCh <- res
		inv.resCh = nil
	}
	if inv.unwatch != nil {
		inv.unwatch()
	}
	if rt.draining && rt.inflight == 0 {
		close(rt.drainCh)
	}
}
