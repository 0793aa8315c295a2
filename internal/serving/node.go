// Node agents and the health-gossip failure detector: the serving runtime's
// port of the simulator's per-node state machines. Each node agent owns the
// containers placed on it; a thin placement layer routes launches by
// locality (FNV home node) with power-of-two-choices overflow forwarding.
// The detector is driven by the same event loop as everything else — evGossip
// ticks on clock.Scheduler — so fake-clock tests step it deterministically.
//
// The live substrate stays elastic (no per-node capacity model): the load
// signal for forwarding is the live container count, and "overflow" means
// the home node is down, suspect, or carrying LocalitySlack more instances
// than the least-loaded healthy peer.
package serving

import (
	"fmt"
	"slices"
	"strconv"

	"smiless/internal/placement"
	"smiless/internal/simulator"
	"smiless/internal/tracing"
)

// nodeHealth is the control plane's view of one node, advanced by the
// gossip failure detector: up → suspect once SuspectAfter passes without a
// heartbeat, suspect → down after DownAfter, and back to up once heartbeats
// resume.
type nodeHealth int

const (
	nodeUp nodeHealth = iota
	nodeSuspect
	nodeDown
)

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

// nodeAgent is one node's state machine. health is what the control plane
// believes; alive and partitioned are ground truth it cannot observe
// directly — only through missing heartbeats.
type nodeAgent struct {
	id    int
	conts int // live containers placed here (the p2c load signal)

	health      nodeHealth
	alive       bool // process running (false between crash and restart)
	partitioned bool // unreachable: completions held until heal
	lastBeat    float64
	downSince   float64
	// detectorDown marks a down verdict issued by the gossip detector;
	// only those are reversed when heartbeats resume.
	detectorDown bool

	// held buffers node-side events (init/exec completions and crashes)
	// that fired while the node was partitioned; they replay in order at
	// heal.
	held []event
}

// NodeInfo is the externally visible snapshot of one node, served by the
// gateway's /nodes endpoint. Alive and Partitioned are ground truth (useful
// for chaos tooling); Health is the detector's current belief.
type NodeInfo struct {
	ID          int    `json:"id"`
	Health      string `json:"health"`
	Alive       bool   `json:"alive"`
	Partitioned bool   `json:"partitioned"`
	Containers  int    `json:"containers"`
}

// nodesActive reports whether multi-node routing and gossip are in force.
func (rt *Runtime) nodesActive() bool { return len(rt.nodes) > 1 }

// nodeSideEvent reports whether the event kind is a completion or failure
// emitted by a container's own node — lost with a crashed node, delayed by a
// partition — as opposed to control-plane timers (timeouts, hedges, idle
// reaping), which run regardless of node reachability.
func nodeSideEvent(kind int) bool {
	switch kind {
	case evInitDone, evExecDone, evInitFail, evExecFail:
		return true
	}
	return false
}

// placeNode picks the node for a new container: the function's locality
// home while it is healthy and not overloaded, otherwise the less loaded of
// two healthy candidates (power of two choices; ties to the lower id).
// Callers hold mu.
func (rt *Runtime) placeNode(fs *fnState) int {
	if !rt.nodesActive() {
		return 0
	}
	switch rt.cfg.Placement {
	case simulator.PlacePack:
		return rt.placeAffinity(fs, true)
	case simulator.PlaceSpread:
		return rt.placeAffinity(fs, false)
	}
	home := simulator.HomeNode(string(fs.id), len(rt.nodes))
	up := make([]*nodeAgent, 0, len(rt.nodes))
	minLoad := -1
	for _, n := range rt.nodes {
		if n.health != nodeUp {
			continue
		}
		up = append(up, n)
		if minLoad < 0 || n.conts < minLoad {
			minLoad = n.conts
		}
	}
	if len(up) == 0 {
		// Every node is suspect or down: place on home anyway — the work
		// is conserved by eviction/failover when the node restarts.
		return home
	}
	h := rt.nodes[home]
	if h.health == nodeUp && h.conts <= minLoad+rt.cfg.LocalitySlack {
		return home
	}
	a, b := up[rt.prng.Intn(len(up))], up[rt.prng.Intn(len(up))]
	best := a
	if b.conts < a.conts || (b.conts == a.conts && b.id < a.id) {
		best = b
	}
	rt.stats.Forwards++
	return best.id
}

// placeAffinity is the serving port of the simulator's affinity policies:
// healthy nodes are scored by the class pressure the launch would meet
// there, then the launch packs (highest pressure: same-class work
// concentrates) or spreads (lowest pressure: least interference). Nodes are
// visited in index order and strict comparisons break ties to the lower id,
// so the choice is deterministic under a fake clock. Callers hold mu.
func (rt *Runtime) placeAffinity(fs *fnState, pack bool) int {
	best, bestScore := -1, 0.0
	for i, n := range rt.nodes {
		if n.health != nodeUp {
			continue
		}
		score := rt.classPressure(i, fs.class)
		if best < 0 || (pack && score > bestScore) || (!pack && score < bestScore) {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		// Every node is suspect or down: place on home anyway — the work
		// is conserved by eviction/failover when a node recovers.
		return simulator.HomeNode(string(fs.id), len(rt.nodes))
	}
	return best
}

// classPressure sums the interference-weighted memory-bandwidth demand that
// node n's live containers exert on the given class. Without a configured
// interference model it degrades to the same-class resident demand.
// Containers are visited in id order for reproducible float accumulation.
func (rt *Runtime) classPressure(n int, class placement.Class) float64 {
	total := 0.0
	for _, c := range rt.conts {
		if c.node != n {
			continue
		}
		w := placement.DemandOf(c.cfg).MemBW
		if m := rt.cfg.Interference; m != nil {
			total += m.Matrix.Coef(class, c.fn.class) * w
		} else if c.fn.class == class {
			total += w
		}
	}
	return total
}

// onPreempt withdraws a spot node: the provider reclaims the capacity, the
// node's containers are evicted, and their in-flight work fails over
// without charging retry attempts — the reclaim is the infrastructure's
// failure, not the attempt's. The down verdict is not the detector's
// (detectorDown stays false), so resumed heartbeats cannot lift it early;
// only the window's end does.
func (rt *Runtime) onPreempt(i int) {
	n := rt.nodes[i]
	if n.health == nodeDown {
		return
	}
	n.health = nodeDown
	rt.stats.Preemptions++
	before := rt.stats.EvictedContainers
	rt.evictNode(i)
	rt.stats.PreemptedContainers += rt.stats.EvictedContainers - before
	rt.nodeInstant("preempt", i)
	rt.pumpAll()
}

// onPreemptEnd returns reclaimed spot capacity to the pool. A node the
// detector independently declared down stays down until its heartbeats
// actually resume.
func (rt *Runtime) onPreemptEnd(i int) {
	n := rt.nodes[i]
	if n.health != nodeDown || n.detectorDown {
		return
	}
	n.health = nodeUp
	rt.nodeInstant("preempt_end", i)
	rt.pumpAll()
}

// onGossip is one failure-detector tick: reachable nodes heartbeat,
// unreachable ones age toward suspect and down, and nodes whose heartbeats
// resumed recover. Nodes are visited in index order so detector side effects
// (evictions, failovers, pumps) are reproducible under a fake clock.
func (rt *Runtime) onGossip() {
	now := rt.now
	for i, n := range rt.nodes {
		if n.alive && !n.partitioned {
			n.lastBeat = now
			// Only reverse the detector's own verdicts.
			if n.health == nodeSuspect || (n.health == nodeDown && n.detectorDown) {
				rt.recoverNode(i)
			}
			continue
		}
		gap := now - n.lastBeat
		if n.health == nodeUp && gap >= rt.cfg.SuspectAfter {
			n.health = nodeSuspect
			rt.nodeInstant("node_suspect", i)
		}
		if n.health != nodeDown && gap >= rt.cfg.DownAfter {
			rt.markNodeDown(i)
		}
	}
	rt.schedule(now+rt.cfg.GossipInterval, event{kind: evGossip})
}

// recoverNode returns a node to service once its heartbeats resume, settling
// its down time into NodeDownSeconds and re-pumping queued work.
func (rt *Runtime) recoverNode(i int) {
	n := rt.nodes[i]
	invariant(n.health == nodeSuspect || (n.health == nodeDown && n.detectorDown), "node %d recovered from illegal state %s (detectorDown=%t): only suspect or detector-declared down nodes recover", i, n.health, n.detectorDown)
	if n.health == nodeDown {
		rt.stats.NodeDownSeconds += rt.now - n.downSince
	}
	n.health = nodeUp
	n.detectorDown = false
	rt.nodeInstant("node_recovered", i)
	rt.pumpAll()
}

// markNodeDown commits the detector's verdict: the node leaves the placement
// pool and every in-flight request bound to it fails over to a live peer. A
// crashed node's containers are evicted (they died with the process); a
// partitioned node's keep running — their eventual completions race the
// failover twins through the first-completion-wins dedup.
func (rt *Runtime) markNodeDown(i int) {
	n := rt.nodes[i]
	invariant(n.health != nodeDown, "node %d marked down twice", i)
	n.health = nodeDown
	n.detectorDown = true
	n.downSince = rt.now
	rt.stats.NodeDownEvents++
	rt.nodeInstant("node_down", i)
	if !n.alive {
		rt.evictNode(i)
	} else if n.partitioned {
		rt.twinNodeInflight(i)
	}
	rt.pumpAll()
}

// evictNode terminates every container the control plane still believes
// lives on node i (in id order for determinism) and fails their in-flight
// batch members over to live peers. Assigned-but-unstarted members requeue
// via terminate.
func (rt *Runtime) evictNode(i int) {
	for _, c := range slices.Clone(rt.conts) { // terminate and failover edit the list
		if c.node != i || c.state == cDead {
			continue
		}
		rt.stats.EvictedContainers++
		members := c.batch
		c.batch = nil
		now := rt.now
		for _, ni := range members {
			ni.span.Fail(now)
		}
		rt.terminate(c)
		for _, ni := range members {
			rt.failoverMember(ni)
		}
	}
}

// twinNodeInflight duplicates every in-flight member on node i onto a live
// peer. The originals keep executing behind the partition; twin and original
// race, first completion wins.
func (rt *Runtime) twinNodeInflight(i int) {
	for _, c := range slices.Clone(rt.conts) { // failover launches edit the list
		if c.node != i {
			continue
		}
		members := append(append([]*nodeInv(nil), c.batch...), c.assigned...)
		for _, ni := range members {
			if ni.inv.failed || ni.inv.prog[ni.fs.idx].done || ni.isHedge {
				continue
			}
			twin := &nodeInv{inv: ni.inv, fs: ni.fs, readyAt: rt.now}
			rt.failoverMember(twin)
		}
	}
}

// failoverMember re-forwards one in-flight member to a live peer. Unlike
// retryMember it charges no retry attempt and applies no backoff: the
// failure is the infrastructure's, not the attempt's. The member keeps its
// attempt count, so its next genuine failure still routes through the retry
// policy, and its request's deadline still bounds total work.
func (rt *Runtime) failoverMember(ni *nodeInv) {
	if ni.inv.failed || ni.inv.prog[ni.fs.idx].done || ni.isHedge {
		return
	}
	rt.stats.Failovers++
	ni.hedged = false
	ni.readyAt = rt.now
	rt.enqueue(ni)
}

// pumpAll re-dispatches queued work in graph order for determinism.
func (rt *Runtime) pumpAll() {
	for _, fs := range rt.fnList {
		if fs.queue.Len() > 0 {
			rt.pump(fs)
		}
	}
}

// nodeInstant records a node-lifecycle marker when tracing is attached.
func (rt *Runtime) nodeInstant(name string, n int) {
	if rt.rec != nil {
		rt.rec.AddInstant(rt.now, name, []tracing.KV{{Key: "node", Val: strconv.Itoa(n)}})
	}
}

// onNodeCrash kills a node's process — ground truth only. Its containers
// stay registered and the control plane keeps routing to them; their
// node-side completions are dropped until the detector declares the node
// down and fails the in-flight work over.
func (rt *Runtime) onNodeCrash(i int) {
	n := rt.nodes[i]
	if !n.alive {
		return
	}
	n.alive = false
	rt.nodeInstant("node_crash", i)
}

// onNodeRestart brings a crashed node back, empty. Containers the control
// plane still believes live on it died with the process: they are evicted
// and their in-flight work fails over — whether or not the detector had
// noticed, a fast flap must not lose requests. Health recovery (placement
// resuming) waits for the next gossip tick.
func (rt *Runtime) onNodeRestart(i int) {
	n := rt.nodes[i]
	if n.alive {
		return
	}
	rt.evictNode(i)
	n.alive = true
	rt.nodeInstant("node_restart", i)
	rt.pumpAll()
}

// onPartitionStart makes a node unreachable: its containers keep running but
// their completions are held until the partition heals.
func (rt *Runtime) onPartitionStart(i int) {
	n := rt.nodes[i]
	if n.partitioned || !n.alive {
		return
	}
	n.partitioned = true
	rt.nodeInstant("partition_start", i)
}

// onPartitionEnd heals a partition: held node-side events replay in their
// original order, racing any failed-over twins through the idempotent
// first-completion-wins dedup — no request completes twice.
func (rt *Runtime) onPartitionEnd(i int) {
	n := rt.nodes[i]
	if !n.partitioned {
		return
	}
	n.partitioned = false
	held := n.held
	n.held = nil
	rt.nodeInstant("partition_heal", i)
	for _, he := range held {
		rt.handle(he)
	}
}

// --- Locked admin surface (gateway chaos endpoints, tests) --------------

// KillNode crashes node i's process immediately. In-flight work on it is
// recovered by the failure detector (or by RestartNode, whichever first).
func (rt *Runtime) KillNode(i int) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if err := rt.checkNode(i); err != nil {
		return err
	}
	rt.readClock()
	rt.onNodeCrash(i)
	return nil
}

// RestartNode restarts a crashed node, evicting the containers that died
// with the old process and failing their work over.
func (rt *Runtime) RestartNode(i int) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if err := rt.checkNode(i); err != nil {
		return err
	}
	rt.readClock()
	rt.onNodeRestart(i)
	return nil
}

// SetPartitioned cuts or heals node i's network. Healing replays held
// completions in order.
func (rt *Runtime) SetPartitioned(i int, partitioned bool) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if err := rt.checkNode(i); err != nil {
		return err
	}
	rt.readClock()
	if partitioned {
		rt.onPartitionStart(i)
	} else {
		rt.onPartitionEnd(i)
	}
	return nil
}

// NodeInfos snapshots every node's state in index order.
func (rt *Runtime) NodeInfos() []NodeInfo {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]NodeInfo, len(rt.nodes))
	for i, n := range rt.nodes {
		out[i] = NodeInfo{
			ID: i, Health: n.health.String(), Alive: n.alive,
			Partitioned: n.partitioned, Containers: n.conts,
		}
	}
	return out
}

func (rt *Runtime) checkNode(i int) error {
	if rt.closed {
		return ErrClosed
	}
	if i < 0 || i >= len(rt.nodes) {
		return fmt.Errorf("serving: node %d out of range [0,%d)", i, len(rt.nodes))
	}
	return nil
}
