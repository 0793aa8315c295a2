package simulator

import (
	"fmt"

	"smiless/internal/hardware"
	"smiless/internal/placement"
)

// The node pool both front ends run: each node's free cores and MPS GPU
// slices, placement against that capacity, launches that wait for it, and
// GPU co-location contention. A live runtime's default pool is
// hardware.UnboundedCluster, whose capacity never binds, so there only node
// health decides where a launch lands.

// fits reports whether the node has free capacity for cfg.
func (n *nodeState) fits(cfg hardware.Config) bool {
	switch cfg.Kind {
	case hardware.CPU:
		return n.freeCores >= cfg.Cores
	case hardware.GPU:
		return n.freeGPU >= cfg.GPUShare
	}
	return false
}

// take reserves cfg's resources on the node.
func (n *nodeState) take(cfg hardware.Config) {
	switch cfg.Kind {
	case hardware.CPU:
		n.freeCores -= cfg.Cores
	case hardware.GPU:
		n.freeGPU -= cfg.GPUShare
	}
}

// freeFor returns the free capacity relevant to cfg's kind, the p2c load
// signal (more free = less loaded).
func (n *nodeState) freeFor(cfg hardware.Config) int {
	if cfg.Kind == hardware.GPU {
		return n.freeGPU
	}
	return n.freeCores
}

// place reserves a node for launching c. A launch that fits nowhere waits
// in pendingLaunch, counted in CapacityBlocked, until capacity frees or a
// node returns to service (reopened).
func (e *Engine) place(c *container) (int, bool) {
	node, ok := e.allocate(c.fn, c.cfg)
	if !ok {
		e.pendingLaunch = append(e.pendingLaunch, c)
		e.stats.CapacityBlocked++
	}
	return node, ok
}

// allocate places cfg under the configured policy and reserves it,
// counting overflow forwards under PlaceP2C; ok is false when nothing fits.
func (e *Engine) allocate(fs *fnState, cfg hardware.Config) (int, bool) {
	switch e.cfg.Placement {
	case PlaceP2C:
		node, forwarded, ok := e.allocateP2C(cfg, HomeNode(string(fs.id), len(e.nodes)))
		if ok && forwarded {
			e.stats.Forwards++
		}
		return node, ok
	case PlacePack, PlaceSpread:
		node := e.affinityNode(fs, cfg, e.cfg.Placement == PlacePack)
		if node < 0 {
			return -1, false
		}
		e.nodes[node].take(cfg)
		return node, true
	}
	// First fit: the first placeable node in index order with room.
	for i, n := range e.nodes {
		if n.placeable() && n.fits(cfg) {
			n.take(cfg)
			return i, true
		}
	}
	return -1, false
}

// allocateP2C places cfg by locality with power-of-two-choices overflow:
// the function's home node keeps the launch while it has capacity;
// otherwise two placeable candidates are sampled from the placement RNG and
// the less loaded one (more free capacity of cfg's kind, ties to the lower
// index) takes it. forwarded reports an off-home placement.
func (e *Engine) allocateP2C(cfg hardware.Config, home int) (node int, forwarded, ok bool) {
	if h := e.nodes[home]; h.placeable() && h.fits(cfg) {
		h.take(cfg)
		return home, false, true
	}
	cand := make([]int, 0, len(e.nodes))
	for i, n := range e.nodes {
		if i != home && n.placeable() && n.fits(cfg) {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return -1, false, false
	}
	best := cand[0]
	if len(cand) > 1 {
		a, b := cand[e.prng.Intn(len(cand))], cand[e.prng.Intn(len(cand))]
		best = a
		if fa, fb := e.nodes[a].freeFor(cfg), e.nodes[b].freeFor(cfg); fb > fa || (fb == fa && b < a) {
			best = b
		}
	}
	e.nodes[best].take(cfg)
	return best, true, true
}

// affinityNode scores every placeable node with room for cfg by the class
// pressure a launch of fs would meet there, then packs (highest pressure
// wins: same-class work concentrates) or spreads (lowest pressure wins: the
// launch lands where it is interfered with least). Nodes are visited in
// index order and strict comparisons break ties to the lower index, so the
// choice is deterministic. It returns -1 when no node qualifies.
func (e *Engine) affinityNode(fs *fnState, cfg hardware.Config, pack bool) int {
	best, bestScore := -1, 0.0
	for i, n := range e.nodes {
		if !n.placeable() || !n.fits(cfg) {
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

// release returns a terminated container's resources to its node, and
// waiting launches that now fit start; a never-placed one leaves the
// pending queue.
func (e *Engine) release(c *container) {
	if c.node < 0 {
		e.pendingLaunch = dropContainer(e.pendingLaunch, c)
		return
	}
	n := e.nodes[c.node]
	n.conts--
	switch c.cfg.Kind {
	case hardware.CPU:
		n.freeCores += c.cfg.Cores
		if n.freeCores > n.spec.Cores {
			panic(fmt.Sprintf("simulator: core over-release on node %d", c.node))
		}
	case hardware.GPU:
		n.freeGPU += c.cfg.GPUShare
		if n.freeGPU > n.spec.GPUs*100 {
			panic(fmt.Sprintf("simulator: GPU over-release on node %d", c.node))
		}
	}
	e.reopened()
}

// reopened starts the waiting launches that now fit, after capacity freed
// or a node returned to service. Every waiting launch is live: release
// takes a terminated one off the list.
func (e *Engine) reopened() {
	remaining := e.pendingLaunch[:0]
	for _, c := range e.pendingLaunch {
		node, ok := e.allocate(c.fn, c.cfg)
		if !ok {
			remaining = append(remaining, c)
			continue
		}
		e.placed(c, node)
	}
	e.pendingLaunch = remaining
}

// gpuSlowdown is the contention factor a batch starting on GPU slice c runs
// under: an MPS slice on a node with u percent of its GPU allocated runs
// (1 + GPUContention·(u−share)/100)× slower — the PCIe/memory bandwidth
// sharing the paper mitigates with the 10% allocation floor (§IV-A2).
func (e *Engine) gpuSlowdown(c *container) float64 {
	if e.cfg.GPUContention > 0 {
		n := e.nodes[c.node]
		if others := n.spec.GPUs*100 - n.freeGPU - c.cfg.GPUShare; others > 0 {
			return 1 + e.cfg.GPUContention*float64(others)/100
		}
	}
	return 1
}

// HomeNode maps a function name onto its locality home node with a 32-bit
// FNV-1a hash — stable across runs and platforms, so both front ends and
// the tests agree on homes.
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
