package placement

import (
	"fmt"

	"smiless/internal/hardware"
)

// Demand names one function instance and the hardware config it wants.
type Demand struct {
	Fn     string
	Config hardware.Config
}

// CapacityError reports a demand no node of the cluster can host given
// what was already placed. Node is the index of the fullest candidate
// node considered (-1 when the cluster is empty).
type CapacityError struct {
	Fn     string
	Node   int
	Demand Vector
	Free   Vector
}

func (e *CapacityError) Error() string {
	if e.Node < 0 {
		return fmt.Sprintf("placement: no nodes in cluster for %q", e.Fn)
	}
	return fmt.Sprintf("placement: %q needs {cores %.0f, gpu %.0f%%, membw %.1f} but best node %d has only {cores %.0f, gpu %.0f%%, membw %.1f} free",
		e.Fn, e.Demand.Cores, e.Demand.GPUShare, e.Demand.MemBW,
		e.Node, e.Free.Cores, e.Free.GPUShare, e.Free.MemBW)
}

// CheckFit first-fit packs the demands (in order) onto the cluster and
// returns the node index chosen for each, or a *CapacityError naming the
// first demand that cannot be hosted anywhere. It is the static
// admission check behind the apps-on-default-cluster tests and the CLI
// validation paths; the engine does its own dynamic accounting.
func CheckFit(cluster hardware.ClusterSpec, demands []Demand) ([]int, error) {
	free := make([]Vector, len(cluster.Nodes))
	for i, n := range cluster.Nodes {
		free[i] = NodeCapacity(n)
	}
	out := make([]int, len(demands))
	for di, d := range demands {
		need := DemandOf(d.Config)
		placed := -1
		best := -1
		for i := range free {
			if need.Fits(free[i]) {
				placed = i
				break
			}
			// Track the roomiest node for the error message.
			if best < 0 || free[i].MemBW > free[best].MemBW {
				best = i
			}
		}
		if placed < 0 {
			e := &CapacityError{Fn: d.Fn, Node: best, Demand: need}
			if best >= 0 {
				e.Free = free[best]
			}
			return nil, e
		}
		free[placed] = Vector{
			Cores:    free[placed].Cores - need.Cores,
			GPUShare: free[placed].GPUShare - need.GPUShare,
			MemBW:    free[placed].MemBW - need.MemBW,
		}
		out[di] = placed
	}
	return out, nil
}
