package simulator

import (
	"math"
	"slices"

	"smiless/internal/coldstart"
	"smiless/internal/hardware"
	"smiless/internal/placement"
	"smiless/internal/tracing"
)

// The container lifecycle and request routing: dispatch, cold starts,
// batches, failures and their recovery, keep-alive, billing and completion.

// enqueue adds a ready node invocation and attempts dispatch.
func (e *Engine) enqueue(ni *nodeInv) {
	notStale(ni, "enqueue")
	if e.rec != nil && ni.span == nil {
		ni.span = e.rec.BeginNode(ni.inv.id, string(ni.fs.id), e.now, ni.isHedge)
	}
	fs := ni.fs
	fs.queue.Push(ni)
	e.pump(fs)
}

// pump dispatches queued invocations onto available containers, launching
// new instances when the directive allows.
func (e *Engine) pump(fs *fnState) {
	d := &fs.directive
	for fs.queue.Len() > 0 {
		// 1. An idle warm container — unless the batch window holds.
		if c := e.pickIdle(fs); c != nil {
			if e.holdForBatch(fs) {
				return
			}
			e.startBatch(c, tracing.PhaseQueue)
			continue
		}
		// 2. Busy warm containers absorb small overlaps: joining the next
		// batch costs at most one inference cycle, which beats waiting out
		// a cold initialization on a fresh instance. Containers on a node
		// the detector holds down or suspect do not count: a batch stuck
		// behind a partition must not absorb the queue.
		busy, routable := 0, 0
		for _, c := range fs.containers {
			if e.routable(c) {
				routable++
				if c.state == cBusy {
					busy++
				}
			}
		}
		if busy > 0 && fs.queue.Len() <= busy*d.Batch {
			return
		}
		// 3. An initializing container with spare assignment capacity.
		// Capacity-blocked launches (not placed on a node yet) do not accept
		// work: binding requests to a container that may never be scheduled
		// would strand them.
		if c := e.pickInitializing(fs); c != nil {
			assign(c, d.Batch-len(c.assigned))
			continue
		}
		// 4. Launch a new instance if under the cap. Instances stranded on a
		// node that is not up still exist (and bill) but do not hold the cap:
		// a failed-over member must be able to launch a replacement. If the
		// cluster is out of capacity the launch waits unplaced and takes no
		// work; the requests stay queued for whichever instance frees first.
		if routable < d.Instances {
			c := e.launch(fs, d.Config, false)
			if c.node < 0 {
				return
			}
			assign(c, d.Batch)
			continue
		}
		// 5. Saturated: wait for a container to free up.
		return
	}
}

// assign binds up to n queued invocations to an initializing container.
func assign(c *container, n int) {
	notRetired(c, "assign")
	for ; n > 0 && c.fn.queue.Len() > 0; n-- {
		c.assigned = append(c.assigned, c.fn.queue.Pop())
	}
}

// holdForBatch reports whether dispatch onto an idle instance should wait
// for the batch aggregation window (§V-D): the directive wants batches, the
// queue has not filled one, and the linger deadline has not passed. The
// first held request arms a timer; onLinger releases the partial batch.
func (e *Engine) holdForBatch(fs *fnState) bool {
	if e.linger <= 0 || fs.directive.Batch <= 1 {
		return false
	}
	if fs.queue.Len() >= fs.directive.Batch {
		return false // full batch: dispatch immediately
	}
	if fs.lingerExpired {
		return false // window closed: dispatch the partial batch
	}
	if !fs.lingerArmed {
		fs.lingerArmed = true
		fs.lingerEpoch++
		e.schedule(e.now+e.linger, event{kind: evLinger, idx: int32(fs.idx), epoch: fs.lingerEpoch})
	}
	return true
}

// onLinger fires when a batch aggregation window expires: whatever is
// queued dispatches as a partial batch.
func (e *Engine) onLinger(fs *fnState, epoch int) {
	if !fs.lingerArmed || fs.lingerEpoch != epoch {
		return
	}
	fs.lingerArmed = false
	fs.lingerExpired = true
	e.pump(fs)
	fs.lingerExpired = false
}

// routable reports whether the control plane will dispatch new work to the
// container: its node must be up in the detector's view. A launch still
// waiting for capacity counts; pickInitializing handles it separately.
func (e *Engine) routable(c *container) bool {
	return c.node < 0 || e.nodes[c.node].placeable()
}

// pickIdle returns the lowest-id idle container the control plane will
// route to.
func (e *Engine) pickIdle(fs *fnState) *container {
	for _, c := range fs.containers {
		notRetired(c, "pickIdle")
		if c.state == cIdle && e.routable(c) {
			return c
		}
	}
	return nil
}

func (e *Engine) pickInitializing(fs *fnState) *container {
	for _, c := range fs.containers {
		notRetired(c, "pickInitializing")
		if c.state == cInitializing && c.node >= 0 && e.routable(c) &&
			len(c.assigned) < fs.directive.Batch {
			return c
		}
	}
	return nil
}

// launch starts a new container (cold start), reusing the last spare one
// with its assigned/batch backing array before allocating. When no node has
// room the launch waits, unplaced, until capacity frees.
func (e *Engine) launch(fs *fnState, cfg hardware.Config, prewarmed bool) *container {
	c := e.spareConts
	if c != nil {
		e.spareConts = c.next
	} else {
		c = new(container)
	}
	buf := c.assigned
	if c.batch != nil {
		buf = c.batch // it died mid-batch (abortBatch)
	}
	clear(buf)
	*c = container{
		id: e.nextCont, fn: fs, cfg: cfg, state: cInitializing,
		initStart: e.now, prewarmed: prewarmed, node: -1,
		timerAt: math.Inf(1), batchSeq: c.batchSeq, timerGen: c.timerGen,
		assigned: buf[:0],
	}
	e.nextCont++
	fs.containers = append(fs.containers, c) // ids only grow: both lists stay ordered
	e.conts = append(e.conts, c)
	e.stats.Inits++
	if node, ok := e.place(c); ok {
		e.placed(c, node)
	}
	return c
}

// placed puts c on node and starts its initialization.
func (e *Engine) placed(c *container, node int) {
	c.node = node
	e.nodes[node].conts++
	e.beginInit(c)
}

// beginInit samples the initialization duration for a placed container and
// schedules its completion — or, under fault injection, its crash partway
// through. The duration sample always comes from the ground-truth RNG so
// the fault-free stream is undisturbed.
func (e *Engine) beginInit(c *container) {
	if e.rec != nil {
		e.rec.BeginInit(c.id, string(c.fn.id), c.cfg.String(), c.node, e.now, c.prewarmed)
	}
	dur := c.fn.spec.SampleInit(e.rng, c.cfg)
	if e.cfg.Interference != nil {
		if f := e.interferenceFactor(c); f > 1 {
			e.stats.InterferedInits++
			e.stats.InterferenceSeconds += dur * (f - 1)
			dur *= f
		}
	}
	if e.inj != nil {
		if fail, frac := e.inj.InitOutcome(string(c.fn.id)); fail {
			e.schedule(e.now+dur*frac, event{kind: evInitFail, c: c, epoch: c.id})
			return
		}
	}
	e.schedule(e.now+dur, event{kind: evInitDone, c: c, epoch: c.id})
}

// interferenceFactor returns the configured model's slowdown for container
// c against the other live containers on its node, visited in id order.
func (e *Engine) interferenceFactor(c *container) float64 {
	var residents []placement.Resident
	for _, o := range e.conts {
		if o == c || o.node != c.node {
			continue
		}
		residents = append(residents, placement.Resident{
			Class: o.fn.class,
			MemBW: placement.DemandOf(o.cfg).MemBW,
		})
	}
	return e.cfg.Interference.Slowdown(c.fn.class, residents)
}

func (e *Engine) onInitDone(c *container, id int) {
	if c.id != id || c.state != cInitializing {
		return
	}
	notRetired(c, "onInitDone")
	c.state = cIdle
	e.stats.WarmStarts++
	fs := c.fn
	if e.rec != nil {
		e.rec.EndInit(c.id, e.now, len(c.assigned) > 0, false)
	}
	if len(c.assigned) > 0 {
		// Work waited for this initialization: the cold start was on the
		// request path.
		e.stats.InitGated++
		e.startBatch(c, tracing.PhaseColdInit)
		if c.state == cIdle {
			// Only reachable under fault injection: every assigned member
			// failed before the init completed, so the batch came up empty
			// and the instance idles like a pre-warm.
			e.armIdleTimer(c)
			e.pump(fs)
		}
		return
	}
	// Pre-warmed and nothing waiting: idle with keep-alive timer.
	e.armIdleTimer(c)
	e.pump(fs)
}

// onInitFail handles an injected crash during initialization: the partial
// init time is still billed (the provider charges for the attempt, Eq. 3),
// assigned work returns to the queue, and pump relaunches — the natural
// retry for a cold start.
func (e *Engine) onInitFail(c *container, id int) {
	if c.id != id || c.state != cInitializing {
		return
	}
	notRetired(c, "onInitFail")
	e.stats.InitFailures++
	c.fn.initFails++
	fs := c.fn
	e.terminate(c)
	e.pump(fs)
}

// startBatch moves assigned/queued work onto the container and runs it.
// Members whose request already failed (retries exhausted elsewhere in the
// DAG) are dropped rather than executed. cause classifies, for tracing, the
// wait each member just finished: a cold initialization the batch was gated
// on, a batch rotation on a busy instance, or plain queueing.
func (e *Engine) startBatch(c *container, cause tracing.Phase) {
	notRetired(c, "startBatch")
	fs := c.fn
	d := &fs.directive
	// Any dispatch from this function closes its aggregation window.
	fs.lingerArmed = false
	fs.lingerEpoch++
	batch := c.assigned[:0]
	for _, ni := range c.assigned {
		notStale(ni, "startBatch")
		if !ni.inv.failed {
			batch = append(batch, ni)
		}
	}
	c.assigned = nil
	for len(batch) < d.Batch && fs.queue.Len() > 0 {
		ni := fs.queue.Pop()
		notStale(ni, "startBatch")
		if !ni.inv.failed {
			batch = append(batch, ni)
		}
	}
	if len(batch) == 0 {
		return
	}
	now := e.now
	c.state = cBusy
	c.batch = batch
	c.idleArmed = false // the keep-alive deadline is void until re-armed
	c.batchSeq++        // validates timeout/hedge/crash events for this batch
	if e.rec != nil {
		for _, ni := range batch {
			ni.span.Dispatch(now, cause, c.initStart, c.id,
				c.cfg.String(), d.Policy.String(), len(batch))
		}
		e.rec.BeginExec(c.id, string(fs.id), c.cfg.String(), c.node, now, len(batch))
	}
	dur := fs.spec.SampleInference(e.rng, c.cfg, len(batch))
	if c.cfg.Kind == hardware.GPU {
		dur *= e.gpuSlowdown(c)
	}
	if e.cfg.Interference != nil {
		if f := e.interferenceFactor(c); f > 1 {
			e.stats.InterferedBatches++
			e.stats.InterferenceSeconds += dur * (f - 1)
			dur *= f
		}
	}
	if e.inj != nil {
		if f := e.inj.StragglerFactor(string(fs.id)); f > 1 {
			dur *= f
			e.stats.Stragglers++
		}
	}
	fs.recordLatency(dur)
	e.stats.Executions++
	e.stats.BatchSum += len(batch)
	if e.inj != nil {
		if fail, frac := e.inj.ExecOutcome(string(fs.id)); fail {
			// The instance crashes partway through; the retry policy decides
			// each member's fate in onExecFail.
			e.schedule(now+dur*frac, event{kind: evExecFail, c: c, epoch: c.batchSeq})
			return
		}
	}
	e.schedule(now+dur, event{kind: evExecDone, c: c, epoch: c.batchSeq})
	if t := d.Retry.Timeout; t > 0 && dur > t {
		e.schedule(now+t, event{kind: evExecTimeout, c: c, epoch: c.batchSeq})
	}
	if h := d.HedgeDelay; h > 0 && len(batch) == 1 && dur > h &&
		!batch[0].isHedge && !batch[0].hedged {
		e.schedule(now+h, event{kind: evHedge, c: c, epoch: c.batchSeq})
	}
}

func (e *Engine) onExecDone(c *container, epoch int) {
	if c.state != cBusy || c.batchSeq != epoch {
		return
	}
	notRetired(c, "onExecDone")
	batch := c.batch
	c.batch = nil
	c.state = cIdle
	fs := c.fn
	now := e.now
	if e.rec != nil {
		e.rec.EndExec(c.id, now, false)
	}

	// Complete each node invocation and release successors. A member whose
	// request already failed, or whose node a hedge twin finished first, is
	// discarded (first completion wins).
	counted := false
	for _, ni := range batch {
		notStale(ni, "onExecDone")
		inv := ni.inv
		if inv.failed || inv.prog[fs.idx].done {
			ni.span.Finish(now, false)
			continue
		}
		ni.span.Finish(now, true)
		if ni.isHedge {
			e.stats.HedgesWon++
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
				e.enqueue(&p.member)
			}
		}
		if inv.remaining == 0 {
			e.completeInvocation(inv)
		}
	}

	// The batch is done with its backing array: the next one is built in it.
	clear(batch)
	c.assigned = batch[:0]
	// More queued work? Keep the instance busy.
	if fs.queue.Len() > 0 {
		e.startBatch(c, tracing.PhaseBatchWait)
		return
	}
	// Apply the cold-start policy.
	switch fs.directive.Policy {
	case coldstart.Prewarm, coldstart.NoMitigation:
		e.terminate(c)
	case coldstart.KeepAlive:
		e.armIdleTimer(c)
	case coldstart.AlwaysOn:
		// Stays resident; no timer.
	}
}

// --- Failure handling ---------------------------------------------------

// abortBatch terminates a container whose batch crashed, timed out or died
// with its node, then hands each in-flight member to route: the retry
// policy or failover.
func (e *Engine) abortBatch(c *container, route func(*fnState, *nodeInv)) {
	members := c.batch
	for _, ni := range members {
		ni.span.Fail(e.now)
	}
	e.terminate(c)
	for _, ni := range members {
		route(c.fn, ni)
	}
}

// onExecFail handles an injected crash mid-execution. The container dies
// (its billed life still charged) and each batch member is individually
// retried or failed.
func (e *Engine) onExecFail(c *container, epoch int) {
	if c.state != cBusy || c.batchSeq != epoch {
		return
	}
	notRetired(c, "onExecFail")
	e.stats.ExecFailures++
	c.fn.execFails++
	e.abortBatch(c, e.retryMember)
	e.pump(c.fn)
}

// onExecTimeout fires when a batch outlives the gateway's per-attempt
// timeout. The hung instance is terminated — re-dispatching onto it would
// just hang again — and the members retry elsewhere.
func (e *Engine) onExecTimeout(c *container, epoch int) {
	if c.state != cBusy || c.batchSeq != epoch {
		return
	}
	notRetired(c, "onExecTimeout")
	e.stats.Timeouts++
	c.fn.execFails++
	e.abortBatch(c, e.retryMember)
	e.pump(c.fn)
}

// retryMember routes one failed batch member through the function's retry
// policy: re-enqueue after backoff while attempts remain, otherwise the
// whole request fails. Hedge twins are never retried — the primary is
// still running. A retry that could not become ready before the request's
// deadline fails the request as deadline-exceeded instead.
func (e *Engine) retryMember(fs *fnState, ni *nodeInv) {
	notStale(ni, "retryMember")
	if ni.inv.failed || ni.isHedge || ni.inv.prog[fs.idx].done {
		return
	}
	ni.attempts++
	pol := fs.directive.Retry
	if !pol.Allow(ni.attempts) {
		e.failInvocation(ni.inv, OutcomeFailed)
		return
	}
	e.stats.Retries++
	ni.hedged = false // a retried attempt may be hedged again
	var u float64
	if e.inj != nil {
		u = e.inj.Jitter()
	} else {
		u = e.rng.Float64()
	}
	delay := pol.Backoff(ni.attempts, u)
	if dl := ni.inv.deadline; dl > 0 && e.now+delay >= dl {
		e.stats.DeadlineExceeded++
		e.failInvocation(ni.inv, OutcomeDeadlineExceeded)
		return
	}
	if delay <= 0 {
		e.enqueue(ni)
		return
	}
	ni.span.Backoff(e.now, e.now+delay)
	e.schedule(e.now+delay, event{kind: evRetry, ni: ni})
}

// failInvocation marks a request permanently failed, purges its remaining
// members from every function queue so no further work is spent on it, and
// resolves it with outcome o. Callers have bumped o's own counter.
func (e *Engine) failInvocation(inv *Request, o Outcome) {
	if inv.failed || inv.resolved {
		return
	}
	inv.failed = true
	e.stats.FailedInvocations++
	if e.rec != nil {
		e.rec.FailRequest(inv.id, e.now)
	}
	for _, fs := range e.fnList {
		if fs.queue.Len() > 0 {
			fs.queue.Filter(func(ni *nodeInv) bool { return ni.inv != inv })
		}
	}
	e.resolve(inv, o)
}

// onDeadline fails a request whose end-to-end budget elapsed unresolved.
// id is the request the deadline was queued for: a request that completed
// first may have been reused, and the object then stands for another one.
func (e *Engine) onDeadline(inv *Request, id int) {
	if inv.id != id || inv.resolved || inv.failed {
		return
	}
	e.stats.DeadlineExceeded++
	e.failInvocation(inv, OutcomeDeadlineExceeded)
}

// onRetry re-enqueues a backed-off member once its delay elapses.
func (e *Engine) onRetry(ni *nodeInv) {
	notStale(ni, "onRetry")
	if ni.inv.failed || ni.inv.prog[ni.fs.idx].done {
		return
	}
	e.enqueue(ni)
}

// onHedge duplicates a slow single-member execution onto a second warm
// instance. The first completion wins (onExecDone's done-map dedup); the
// loser's result is discarded.
func (e *Engine) onHedge(c *container, epoch int) {
	if c.state != cBusy || c.batchSeq != epoch || len(c.batch) != 1 {
		return
	}
	notRetired(c, "onHedge")
	primary := c.batch[0]
	notStale(primary, "onHedge")
	if primary.inv.failed || primary.hedged || primary.isHedge || primary.inv.prog[c.fn.idx].done {
		return
	}
	h := e.pickIdle(c.fn)
	if h == nil {
		return // no spare warm instance: hedging never launches cold starts
	}
	primary.hedged = true
	primary.inv.shared = true
	twin := &nodeInv{inv: primary.inv, fs: c.fn, isHedge: true}
	if e.rec != nil {
		twin.span = e.rec.BeginNode(primary.inv.id, string(c.fn.id), e.now, true)
	}
	e.stats.HedgesLaunched++
	h.assigned = append(h.assigned, twin)
	e.startBatch(h, tracing.PhaseQueue)
}

// --- Keep-alive, termination, billing ------------------------------------

// armIdleTimer sets the container's keep-alive deadline from the directive
// in force now. Under AlwaysOn nothing is armed — and nothing is disarmed: a
// deadline that survived since the last batch stays live.
func (e *Engine) armIdleTimer(c *container) {
	d := c.fn.directive
	if d.Policy == coldstart.AlwaysOn {
		return
	}
	ka := d.KeepAlive
	if ka <= 0 {
		// Grace period for drivers that leave KeepAlive unset: long
		// enough that a pre-warmed instance arriving slightly early is
		// not reaped before its request.
		ka = 10 * e.cfg.Window
	}
	c.idleAt, c.idleTicket, c.idleArmed = e.now+ka, e.events.Ticket(), true
	if c.idleAt < c.timerAt {
		// No entry is queued, or a directive cut KeepAlive under the one
		// that is: queue one for this deadline, superseding it.
		e.pushIdleTimer(c)
	}
}

func (e *Engine) pushIdleTimer(c *container) {
	c.timerGen++
	c.timerAt = c.idleAt
	e.events.PushTicket(c.idleAt, c.idleTicket, event{kind: evIdleTimeout, c: c, epoch: c.timerGen})
}

// onIdleTimeout handles the container's queue entry coming due and reports
// whether its keep-alive deadline really expired.
func (e *Engine) onIdleTimeout(c *container, gen int) bool {
	if gen != c.timerGen || c.state == cDead {
		return false // superseded by an entry for an earlier deadline
	}
	notRetired(c, "onIdleTimeout")
	c.timerAt = math.Inf(1)
	if !c.idleArmed || c.state != cIdle {
		return false // a batch ran since the deadline was armed
	}
	if c.idleAt > e.now {
		e.pushIdleTimer(c) // re-armed for later while this entry waited
		return false
	}
	if len(c.fn.containers) <= c.fn.directive.MinWarm {
		e.armIdleTimer(c) // floor reached: stay resident, check again later
	} else {
		e.terminate(c)
	}
	return true
}

// terminate kills c and bills its life. A second call within the same event
// is a no-op: c goes on the dead list, reused only from the next one.
func (e *Engine) terminate(c *container) {
	notRetired(c, "terminate")
	if c.state == cDead {
		return
	}
	if e.rec != nil {
		e.rec.ContainerGone(c.id, e.now)
	}
	// Requeue any assigned-but-unstarted work.
	if len(c.assigned) > 0 {
		c.fn.queue.PushFront(c.assigned)
	}
	c.state = cDead
	e.release(c)
	life, cost := e.billedLife(c)
	e.stats.addCost(string(c.fn.id), c.cfg, life, cost)
	c.fn.containers = dropContainer(c.fn.containers, c)
	e.conts = dropContainer(e.conts, c)
	c.next, e.dead = e.dead, c
}

// recycleDead, at each top-level entry (dispatch, arrive), makes spare the
// containers terminated since the last one. Not sooner: evictNode and the
// failover paths may terminate a container twice in one event, and the
// second call must stay a no-op. Invariant builds retire them instead.
func (e *Engine) recycleDead() {
	for c := e.dead; c != nil; c = e.dead {
		e.dead = c.next
		if invariantsEnabled {
			c.retired = true
		} else {
			c.next, e.spareConts = e.spareConts, c
		}
	}
}

// notRetired checks, in invariant builds, that a container touched at where
// is not one recycleDead has retired.
func notRetired(c *container, where string) {
	invariant(!c.retired, "%s touched container %d after it was terminated", where, c.id)
}

// dropContainer removes c from an id-ordered container list, keeping order.
func dropContainer(cs []*container, c *container) []*container {
	i := slices.Index(cs, c)
	return slices.Delete(cs, i, i+1)
}

// billedLife returns a container's billed lifetime in seconds and its
// dollar cost from initialization start to now: static pricing by default,
// or the spot trace's multiplier-weighted integral when one is configured.
// FlatTrace(1) integrates to exactly the raw lifetime, so its bills are
// bit-identical to static pricing.
func (e *Engine) billedLife(c *container) (life, cost float64) {
	life = e.now - c.initStart
	unit := e.cfg.Pricing.UnitCost(c.cfg)
	if pt := e.cfg.PriceTrace; pt != nil {
		return life, unit * pt.Integrate(c.initStart, e.now)
	}
	return life, life * unit
}

// --- Resolution -----------------------------------------------------------

func (e *Engine) completeInvocation(inv *Request) {
	invariant(inv.remaining == 0 && !inv.failed && !inv.resolved, "request %d completed with remaining=%d failed=%t resolved=%t: done-map dedup broke", inv.id, inv.remaining, inv.failed, inv.resolved)
	e2e := e.now - inv.arrival
	e.stats.Completed++
	var bd tracing.Breakdown
	if e.rec != nil {
		bd = e.rec.CompleteRequest(inv.id, e.now)
	}
	// Requests arriving in the measurement warm-up are not reported.
	if inv.arrival >= e.cfg.StatsAfter {
		e.stats.E2E = append(e.stats.E2E, e2e)
		e.stats.E2EArrival = append(e.stats.E2EArrival, inv.arrival)
		if e2e > e.cfg.SLA {
			e.stats.Violations++
			if e.rec != nil && bd.Blamed != "" {
				if e.stats.ViolationByFn == nil {
					e.stats.ViolationByFn = make(map[string]int)
				}
				e.stats.ViolationByFn[bd.Blamed]++
			}
		}
		if e.rec != nil {
			e.stats.QueueOnPathSeconds += bd.Phases[tracing.PhaseQueue] + bd.Phases[tracing.PhaseBatchWait]
			e.stats.InitOnPathSeconds += bd.Phases[tracing.PhaseColdInit]
			e.stats.ExecOnPathSeconds += bd.Phases[tracing.PhaseExec]
			e.stats.RetryOnPathSeconds += bd.Phases[tracing.PhaseFailedAttempt] + bd.Phases[tracing.PhaseBackoff]
		}
	}
	e.resolve(inv, OutcomeCompleted)
	e.recycle(inv)
}

// recycle makes a request that completed the next one arrive hands out,
// unless it is shared: then a hedge twin or failover copy may still sit in
// a queue or batch. A failed request is never recycled (its members may
// still be queued, assigned or awaiting a retry), and a queued deadline
// event carries the id onDeadline checks (DESIGN.md, "Buffers that stay").
// Builds tagged smiless_invariants mark the request retired instead, and
// every member touch asserts it is not (notStale).
func (e *Engine) recycle(inv *Request) {
	if inv.shared {
		return
	}
	if invariantsEnabled {
		inv.retired = true
		return
	}
	e.spare = append(e.spare, inv)
}

// notStale checks, in invariant builds, that a member touched at where does
// not belong to a request recycle has retired.
func notStale(ni *nodeInv, where string) {
	invariant(!ni.inv.retired, "%s touched a member of request %d after it completed", where, ni.inv.id)
}

// resolve hands a request's outcome to the front end, once.
func (e *Engine) resolve(inv *Request, o Outcome) {
	inv.resolved = true
	if e.resolved != nil {
		e.resolved(inv, o)
	}
}

func (e *Engine) onPrewarm(fs *fnState) {
	// An idle or initializing instance already satisfies the pre-warm
	// goal. A busy instance does too unless the policy terminates it
	// after its current batch (Prewarm/NoMitigation), in which case it
	// will not be available for the next request.
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
	if len(fs.containers) >= fs.directive.Instances {
		return
	}
	e.launch(fs, fs.directive.Config, true)
}
