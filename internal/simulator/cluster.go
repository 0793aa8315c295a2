package simulator

import (
	"fmt"
	"math/rand"

	"smiless/internal/hardware"
)

// The simulator's cluster model: each node's free cores and MPS GPU slices.
// *Simulator is the engine's substrate — placement against that capacity,
// launches that wait for it, and GPU co-location contention.

// capacity is one node's free resources.
type capacity struct {
	spec      hardware.NodeSpec
	freeCores int
	freeGPU   int // in percent (10% MPS slices)
}

// fits reports whether the node has free capacity for cfg.
func (n *capacity) fits(cfg hardware.Config) bool {
	switch cfg.Kind {
	case hardware.CPU:
		return n.freeCores >= cfg.Cores
	case hardware.GPU:
		return n.freeGPU >= cfg.GPUShare
	}
	return false
}

// take reserves cfg's resources on the node.
func (n *capacity) take(cfg hardware.Config) {
	switch cfg.Kind {
	case hardware.CPU:
		n.freeCores -= cfg.Cores
	case hardware.GPU:
		n.freeGPU -= cfg.GPUShare
	}
}

// freeFor returns the free capacity relevant to cfg's kind, the p2c load
// signal (more free = less loaded).
func (n *capacity) freeFor(cfg hardware.Config) int {
	if cfg.Kind == hardware.GPU {
		return n.freeGPU
	}
	return n.freeCores
}

func newCapacities(spec hardware.ClusterSpec) []capacity {
	caps := make([]capacity, len(spec.Nodes))
	for i, n := range spec.Nodes {
		caps[i] = capacity{spec: n, freeCores: n.Cores, freeGPU: n.GPUs * 100}
	}
	return caps
}

// allocate places cfg under the configured policy and reserves it,
// counting overflow forwards under PlaceP2C; ok is false when nothing fits.
func (s *Simulator) allocate(fs *fnState, cfg hardware.Config) (int, bool) {
	switch s.cfg.Placement {
	case PlaceP2C:
		node, forwarded, ok := s.allocateP2C(cfg, HomeNode(string(fs.id), len(s.caps)), s.prng)
		if ok && forwarded {
			s.stats.Forwards++
		}
		return node, ok
	case PlacePack, PlaceSpread:
		node := s.affinityNode(fs, cfg, s.cfg.Placement == PlacePack)
		if node < 0 {
			return -1, false
		}
		s.caps[node].take(cfg)
		return node, true
	}
	// First fit: the first placeable node in index order with room.
	for i := range s.caps {
		if s.nodes[i].placeable() && s.caps[i].fits(cfg) {
			s.caps[i].take(cfg)
			return i, true
		}
	}
	return -1, false
}

// allocateP2C places cfg by locality with power-of-two-choices overflow:
// the function's home node keeps the launch while it has capacity;
// otherwise two placeable candidates are sampled from prng and the less
// loaded one (more free capacity of cfg's kind, ties to the lower index)
// takes it. forwarded reports an off-home placement.
func (s *Simulator) allocateP2C(cfg hardware.Config, home int, prng *rand.Rand) (node int, forwarded, ok bool) {
	if s.nodes[home].placeable() && s.caps[home].fits(cfg) {
		s.caps[home].take(cfg)
		return home, false, true
	}
	cand := make([]int, 0, len(s.caps))
	for i := range s.caps {
		if i != home && s.nodes[i].placeable() && s.caps[i].fits(cfg) {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return -1, false, false
	}
	best := cand[0]
	if len(cand) > 1 {
		a, b := cand[prng.Intn(len(cand))], cand[prng.Intn(len(cand))]
		best = a
		if s.caps[b].freeFor(cfg) > s.caps[a].freeFor(cfg) ||
			(s.caps[b].freeFor(cfg) == s.caps[a].freeFor(cfg) && b < a) {
			best = b
		}
	}
	s.caps[best].take(cfg)
	return best, true, true
}

// place implements substrate: a launch that fits nowhere waits in
// pendingLaunch until capacity frees.
func (s *Simulator) place(c *container) (int, bool) {
	node, ok := s.allocate(c.fn, c.cfg)
	if !ok {
		s.pendingLaunch = append(s.pendingLaunch, c)
		s.stats.CapacityBlocked++
	}
	return node, ok
}

func (s *Simulator) fits(i int, cfg hardware.Config) bool { return s.caps[i].fits(cfg) }

// release implements substrate: a placed container's resources return to
// its node and waiting launches that now fit start; a never-placed one
// leaves the pending queue.
func (s *Simulator) release(c *container) {
	if c.node < 0 {
		for i, p := range s.pendingLaunch {
			if p == c {
				s.pendingLaunch = append(s.pendingLaunch[:i], s.pendingLaunch[i+1:]...)
				break
			}
		}
		return
	}
	n := &s.caps[c.node]
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
	s.reopened()
}

// reopened implements substrate: queued launches that now fit start.
func (s *Simulator) reopened() {
	remaining := s.pendingLaunch[:0]
	for _, c := range s.pendingLaunch {
		if c.state != cInitializing {
			continue
		}
		node, ok := s.allocate(c.fn, c.cfg)
		if !ok {
			remaining = append(remaining, c)
			continue
		}
		s.placed(c, node)
	}
	s.pendingLaunch = remaining
}

// gpuSlowdown implements substrate: an MPS slice on a node with u percent of
// its GPU allocated runs (1 + GPUContention·(u−share)/100)× slower — the
// PCIe/memory bandwidth sharing the paper mitigates with the 10% allocation
// floor (§IV-A2).
func (s *Simulator) gpuSlowdown(c *container) float64 {
	if s.cfg.GPUContention > 0 {
		n := &s.caps[c.node]
		if others := n.spec.GPUs*100 - n.freeGPU - c.cfg.GPUShare; others > 0 {
			return 1 + s.cfg.GPUContention*float64(others)/100
		}
	}
	return 1
}

// churns implements substrate: simulated nodes fail only as the fault plan
// schedules.
func (*Simulator) churns() bool { return false }
