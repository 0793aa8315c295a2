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
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if err := rt.checkNode(i); err != nil {
		return err
	}
	rt.readClock()
	rt.eng.CrashNode(i)
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
	rt.eng.RebootNode(i)
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
	rt.eng.PartitionNode(i, partitioned)
	return nil
}

// NodeInfos snapshots every node's state in index order.
func (rt *Runtime) NodeInfos() []NodeInfo {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]NodeInfo, rt.cfg.Nodes)
	for i := range out {
		out[i].ID = i
		out[i].Health, out[i].Alive, out[i].Partitioned, out[i].Containers = rt.eng.NodeStatus(i)
	}
	return out
}

func (rt *Runtime) checkNode(i int) error {
	if rt.closed {
		return ErrClosed
	}
	if i < 0 || i >= rt.cfg.Nodes {
		return fmt.Errorf("serving: node %d out of range [0,%d)", i, rt.cfg.Nodes)
	}
	return nil
}
