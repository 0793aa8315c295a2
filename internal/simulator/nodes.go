package simulator

import (
	"slices"
	"strconv"

	"smiless/internal/hardware"
	"smiless/internal/placement"
	"smiless/internal/tracing"
)

// Node health, the gossip failure detector, failover, and the placement
// both substrates share.

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

// nodeState is one node agent's state machine. health is what the control
// plane believes; alive and partitioned are ground truth it cannot see
// directly — only through missing heartbeats.
type nodeState struct {
	conts int // live containers placed here

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
	e.sub.reopened()
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
		members := c.batch
		c.batch = nil
		fs := c.fn
		for _, ni := range members {
			ni.span.Fail(e.now)
		}
		e.terminate(c)
		for _, ni := range members {
			e.failoverMember(fs, ni)
		}
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
			if ni.inv.failed || ni.inv.prog[ni.fs.idx].done || ni.isHedge {
				continue
			}
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
	e.sub.reopened()
	e.pumpAll()
}

// --- Placement ------------------------------------------------------------

// affinityNode scores every placeable node with room for cfg by the class
// pressure a launch of fs would meet there, then packs (highest pressure
// wins: same-class work concentrates) or spreads (lowest pressure wins: the
// launch lands where it is interfered with least). Nodes are visited in
// index order and strict comparisons break ties to the lower index, so the
// choice is deterministic. It returns -1 when no node qualifies.
func (e *Engine) affinityNode(fs *fnState, cfg hardware.Config, pack bool) int {
	best, bestScore := -1, 0.0
	for i, n := range e.nodes {
		if !n.placeable() || !e.sub.fits(i, cfg) {
			continue
		}
		score := e.classPressure(i, fs.class)
		if best < 0 || (pack && score > bestScore) || (!pack && score < bestScore) {
			best, bestScore = i, score
		}
	}
	return best
}

// classPressure sums the interference-weighted memory-bandwidth demand that
// node n's live containers exert on the given class. Without a configured
// interference model it degrades to the same-class resident demand, so the
// affinity policies still have a signal. Containers are visited in id order
// for reproducible float accumulation.
func (e *Engine) classPressure(n int, class placement.Class) float64 {
	total := 0.0
	for _, c := range e.conts {
		if c.node != n {
			continue
		}
		w := placement.DemandOf(c.cfg).MemBW
		if m := e.cfg.Interference; m != nil {
			total += m.Matrix.Coef(class, c.fn.class) * w
		} else if c.fn.class == class {
			total += w
		}
	}
	return total
}

// place implements substrate for a live runtime's elastic node pool: no
// capacity model, so every launch places — on a single node trivially;
// otherwise by the affinity policies, or on the function's locality home
// unless that node is not up or carries slack more containers than the
// least-loaded up node, in which case on the less loaded of two up nodes
// sampled (power of two choices; ties to the lower index). With every node
// suspect or down the launch goes home anyway: eviction and failover
// conserve its work when the node returns.
func (l *LiveEngine) place(c *container) (int, bool) {
	fs := c.fn
	if len(l.nodes) == 1 {
		return 0, true
	}
	home := HomeNode(string(fs.id), len(l.nodes))
	switch l.cfg.Placement {
	case PlacePack, PlaceSpread:
		if n := l.affinityNode(fs, c.cfg, l.cfg.Placement == PlacePack); n >= 0 {
			return n, true
		}
		return home, true
	}
	up := make([]int, 0, len(l.nodes))
	minLoad := -1
	for i, n := range l.nodes {
		if !n.placeable() {
			continue
		}
		up = append(up, i)
		if minLoad < 0 || n.conts < minLoad {
			minLoad = n.conts
		}
	}
	if len(up) == 0 {
		return home, true
	}
	if h := l.nodes[home]; h.placeable() && h.conts <= minLoad+l.slack {
		return home, true
	}
	a, b := up[l.prng.Intn(len(up))], up[l.prng.Intn(len(up))]
	best := a
	if nb, na := l.nodes[b].conts, l.nodes[a].conts; nb < na || (nb == na && b < a) {
		best = b
	}
	l.stats.Forwards++
	return best, true
}

func (*LiveEngine) fits(int, hardware.Config) bool { return true }
func (*LiveEngine) release(*container)             {}
func (*LiveEngine) reopened()                      {}
func (*LiveEngine) gpuSlowdown(*container) float64 { return 1 }
func (l *LiveEngine) churns() bool                 { return len(l.nodes) > 1 }

// HomeNode maps a function name onto its locality home node with a 32-bit
// FNV-1a hash — stable across runs and platforms, so both substrates agree
// on homes.
func HomeNode(fn string, nodes int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(fn); i++ {
		h ^= uint32(fn[i])
		h *= prime32
	}
	return int(h % uint32(nodes))
}
