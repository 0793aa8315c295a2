package simulator

import (
	"slices"
	"strconv"

	"smiless/internal/hardware"
	"smiless/internal/tracing"
)

// Node health, the gossip failure detector and failover.

// nodeHealth is the control plane's view of one node, advanced by the
// deterministic gossip failure detector: Up → Suspect once SuspectAfter
// passes without a heartbeat, Suspect → Down after DownAfter, and back to
// Up once heartbeats resume.
type nodeHealth int

const (
	nodeUp nodeHealth = iota
	nodeSuspect
	nodeDown
)

// String names the health state for traces and reports.
func (h nodeHealth) String() string {
	switch h {
	case nodeUp:
		return "up"
	case nodeSuspect:
		return "suspect"
	case nodeDown:
		return "down"
	}
	return "unknown"
}

// nodeState is one node agent's state machine and its capacity. health is
// what the control plane believes; alive and partitioned are ground truth
// it cannot see directly — only through missing heartbeats.
type nodeState struct {
	spec      hardware.NodeSpec
	freeCores int
	freeGPU   int // in percent (10% MPS slices)
	conts     int // live containers placed here

	health      nodeHealth
	alive       bool // process running (false between crash and restart)
	partitioned bool // unreachable: completions held until heal
	lastBeat    float64
	downSince   float64
	// detectorDown marks a down verdict issued by the gossip detector (as
	// opposed to a preemption): only those verdicts are reversed when
	// heartbeats resume.
	detectorDown bool

	// held buffers node-side events (init/exec completions and crashes)
	// that fired while the node was partitioned; they are replayed in
	// order when the partition heals.
	held []event
}

// placeable reports whether the control plane will route new work to the
// node. Suspect nodes are skipped too: placement avoids doubtful nodes even
// before the detector commits to down.
func (n *nodeState) placeable() bool { return n.health == nodeUp }

// onGossip is one deterministic failure-detector tick: reachable nodes
// heartbeat, unreachable ones age toward suspect and down, and nodes whose
// heartbeats resumed recover. Nodes are visited in index order so detector
// side effects (evictions, failovers, pumps) are reproducible.
func (e *Engine) onGossip() {
	now := e.now
	for i, n := range e.nodes {
		if n.alive && !n.partitioned {
			n.lastBeat = now
			// Only reverse the detector's own verdicts: a node a preemption
			// holds down stays down until its window ends.
			if n.health == nodeSuspect || (n.health == nodeDown && n.detectorDown) {
				e.recoverNode(i)
			}
			continue
		}
		gap := now - n.lastBeat
		if n.health == nodeUp && gap >= e.cfg.SuspectAfter {
			n.health = nodeSuspect
			e.nodeInstant("node_suspect", i)
		}
		if n.health != nodeDown && gap >= e.cfg.DownAfter {
			e.markNodeDown(i)
		}
	}
	e.schedule(now+e.cfg.GossipInterval, event{kind: evGossip})
}

// recoverNode returns a node to service once its heartbeats resume: down
// time settles into NodeDownSeconds, launches waiting for capacity place,
// and queued work re-pumps.
func (e *Engine) recoverNode(i int) {
	n := e.nodes[i]
	invariant(n.health == nodeSuspect || (n.health == nodeDown && n.detectorDown), "node %d recovered from illegal state %s (detectorDown=%t): only suspect or detector-declared down nodes recover", i, n.health, n.detectorDown)
	if n.health == nodeDown {
		e.stats.NodeDownSeconds += e.now - n.downSince
	}
	n.health = nodeUp
	n.detectorDown = false
	e.nodeInstant("node_recovered", i)
	e.reopened()
	e.pumpAll()
}

// markNodeDown commits the detector's verdict: the node leaves the
// placement pool and every in-flight request bound to it fails over to a
// live peer. A crashed node's containers are evicted (they died with the
// process); a partitioned node's keep running — their eventual completions
// race the failover twins, and the done-map dedup keeps exactly one.
func (e *Engine) markNodeDown(i int) {
	n := e.nodes[i]
	invariant(n.health != nodeDown, "node %d marked down twice", i)
	n.health = nodeDown
	n.detectorDown = true
	n.downSince = e.now
	e.stats.NodeDownEvents++
	e.nodeInstant("node_down", i)
	if !n.alive {
		e.evictNode(i)
	} else if n.partitioned {
		e.twinNodeInflight(i)
	}
	e.pumpAll()
}

// evictNode terminates every container on node n (id order for
// determinism) and fails each in-flight batch member over to a live peer.
// Assigned-but-unstarted members requeue via terminate.
func (e *Engine) evictNode(n int) {
	for _, c := range slices.Clone(e.conts) { // terminate and failover edit the list
		if c.node != n || c.state == cDead {
			continue
		}
		e.stats.EvictedContainers++
		e.abortBatch(c, e.failoverMember)
	}
}

// twinNodeInflight duplicates every in-flight member on node i onto a live
// peer. The originals keep executing behind the partition; twin and
// original race, first completion wins.
func (e *Engine) twinNodeInflight(i int) {
	for _, c := range slices.Clone(e.conts) { // failover launches edit the list
		if c.node != i {
			continue
		}
		members := append(append([]*nodeInv(nil), c.batch...), c.assigned...)
		for _, ni := range members {
			notStale(ni, "twinNodeInflight")
			if ni.inv.failed || ni.inv.prog[ni.fs.idx].done || ni.isHedge {
				continue
			}
			ni.inv.shared = true
			e.failoverMember(c.fn, &nodeInv{inv: ni.inv, fs: ni.fs})
		}
	}
}

// failoverMember re-forwards one in-flight member to a live peer. Unlike
// retryMember it charges no retry attempt and applies no backoff: the
// failure is the infrastructure's, not the attempt's, and the detection
// delay already cost latency. The deadline/retry budgets still bound total
// work — a member that keeps landing on dying nodes keeps its attempt
// count, so its next genuine failure routes through the retry policy.
func (e *Engine) failoverMember(fs *fnState, ni *nodeInv) {
	notStale(ni, "failoverMember")
	if ni.inv.failed || ni.inv.prog[fs.idx].done || ni.isHedge {
		return
	}
	e.stats.Failovers++
	ni.hedged = false
	e.enqueue(ni)
}

// pumpAll re-dispatches queued work in graph order for determinism.
func (e *Engine) pumpAll() {
	for _, fs := range e.fnList {
		if fs.queue.Len() > 0 {
			e.pump(fs)
		}
	}
}

// nodeInstant records a node-lifecycle marker when tracing is attached.
func (e *Engine) nodeInstant(name string, n int) {
	if e.rec != nil {
		e.rec.AddInstant(e.now, name, []tracing.KV{{Key: "node", Val: strconv.Itoa(n)}})
	}
}

// onNodeCrash kills a node's process — ground truth only. Its containers
// stay registered and the control plane keeps routing to them; their
// node-side completions are dropped until the gossip detector marks the
// node down and fails the in-flight work over.
func (e *Engine) onNodeCrash(i int) {
	n := e.nodes[i]
	if !n.alive {
		return
	}
	n.alive = false
	e.nodeInstant("node_crash", i)
}

// onNodeRestart brings a crashed node back, empty. Containers the control
// plane still believes live on it died with the process: they are evicted
// and their in-flight work fails over — whether or not the detector had
// noticed the crash, a fast flap must not lose requests. Health recovery
// (allocations resuming) waits for the next gossip tick to observe the
// resumed heartbeats.
func (e *Engine) onNodeRestart(i int) {
	n := e.nodes[i]
	if n.alive {
		return
	}
	e.evictNode(i)
	n.alive = true
	e.nodeInstant("node_restart", i)
	e.pumpAll()
}

// onPartitionStart makes a node unreachable: its containers keep running
// but their completions are held until the partition heals.
func (e *Engine) onPartitionStart(i int) {
	n := e.nodes[i]
	if n.partitioned || !n.alive {
		return
	}
	n.partitioned = true
	e.nodeInstant("partition_start", i)
}

// onPartitionEnd heals a partition: held node-side events replay in their
// original order at heal time, racing any failed-over twins through the
// idempotent first-completion-wins dedup — no request completes twice.
func (e *Engine) onPartitionEnd(i int) {
	n := e.nodes[i]
	if !n.partitioned {
		return
	}
	n.partitioned = false
	held := n.held
	n.held = nil
	e.nodeInstant("partition_heal", i)
	for i := range held {
		e.dispatch(&held[i])
	}
}

// onPreempt withdraws a spot node: the provider reclaims the capacity, the
// node's containers are evicted, and their in-flight work fails over to
// live peers without charging retry attempts — the reclaim notice is the
// infrastructure's failure, not the attempt's. The verdict is not the
// detector's, so resumed heartbeats cannot lift it early; only the window's
// end does.
func (e *Engine) onPreempt(i int) {
	n := e.nodes[i]
	if n.health == nodeDown {
		return
	}
	n.health = nodeDown
	e.stats.Preemptions++
	before := e.stats.EvictedContainers
	e.evictNode(i)
	e.stats.PreemptedContainers += e.stats.EvictedContainers - before
	e.nodeInstant("preempt", i)
	e.pumpAll()
}

// onPreemptEnd returns reclaimed spot capacity to the pool. A node the
// detector independently declared down stays down until its heartbeats
// actually resume.
func (e *Engine) onPreemptEnd(i int) {
	n := e.nodes[i]
	if n.health != nodeDown || n.detectorDown {
		return
	}
	n.health = nodeUp
	e.nodeInstant("preempt_end", i)
	e.reopened()
	e.pumpAll()
}
