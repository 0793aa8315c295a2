package serving

import "fmt"

// NodeInfo is the externally visible snapshot of one node, served by the
// gateway's /nodes endpoint. Alive and Partitioned are ground truth (useful
// for chaos tooling); Health is the failure detector's current belief.
type NodeInfo struct {
	ID          int    `json:"id"`
	Health      string `json:"health"`
	Alive       bool   `json:"alive"`
	Partitioned bool   `json:"partitioned"`
	Containers  int    `json:"containers"`
}

// --- Locked admin surface (gateway chaos endpoints, tests) --------------

// KillNode crashes node i's process immediately. In-flight work on it is
// recovered by the failure detector (or by RestartNode, whichever first).
func (rt *Runtime) KillNode(i int) error {
	return rt.onNode(i, rt.eng.CrashNode)
}

// RestartNode restarts a crashed node, evicting the containers that died
// with the old process and failing their work over.
func (rt *Runtime) RestartNode(i int) error {
	return rt.onNode(i, rt.eng.RebootNode)
}

// SetPartitioned cuts or heals node i's network. Healing replays held
// completions in order.
func (rt *Runtime) SetPartitioned(i int, partitioned bool) error {
	return rt.onNode(i, func(i int) { rt.eng.PartitionNode(i, partitioned) })
}

// NodeInfos snapshots every node's state in index order.
func (rt *Runtime) NodeInfos() []NodeInfo {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]NodeInfo, len(rt.cfg.Cluster.Nodes))
	for i := range out {
		out[i].ID = i
		out[i].Health, out[i].Alive, out[i].Partitioned, out[i].Containers = rt.eng.NodeStatus(i)
	}
	return out
}

// onNode runs f on node i through onEngine, once i is known to be a node.
func (rt *Runtime) onNode(i int, f func(int)) error {
	if n := len(rt.cfg.Cluster.Nodes); i < 0 || i >= n {
		return fmt.Errorf("serving: node %d out of range [0,%d)", i, n)
	}
	return rt.onEngine(func() error {
		f(i)
		return nil
	})
}
