// Package baselines implements the four systems the paper compares SMIless
// against (§VII-A) plus the OPT oracle, each as a simulator.Driver:
//
//   - Orion (OSDI'22): sizes configurations under a "right pre-warming"
//     assumption — every function's initialization is assumed to overlap
//     its predecessor's execution perfectly — and pre-warms reactively per
//     request. It ignores inter-arrival dynamics, so closely spaced
//     invocations force extra instances and SLA violations (§II-C2).
//   - IceBreaker (ASPLOS'22): manages each function independently with a
//     Fourier-based invocation predictor (FIP) and an
//     efficiency-to-cost-ratio hardware choice, DAG-unaware; it keeps many
//     GPU-resident instances alive (Fig. 9a).
//   - GrandSLAm (EuroSys'19): a throughput-oriented runtime that splits the
//     SLA budget across stages, batches aggressively, and keeps every stage
//     resident (no cold-start management, restricted scaling).
//   - Aquatope (ASPLOS'23): uncertainty-aware Bayesian optimization over
//     configurations with a QoS penalty; no cold-start management, so it
//     re-initializes containers frequently (Fig. 9b).
//   - OPT: an oracle with the true arrival times and ground-truth profiles,
//     solving the static plan exactly on the Strategy Optimizer's own model
//     (core.Optimizer.OptimizeExact) and pre-warming perfectly.
//
//lint:deterministic
package baselines

import (
	"smiless/internal/dag"
	"smiless/internal/hardware"
	"smiless/internal/perfmodel"
)

// PlatformKeepAlive is the idle timeout baselines inherit from the
// serverless platform (OpenFaaS-style fixed keep-alive), used by systems
// that do not manage cold starts themselves.
const PlatformKeepAlive = 30.0

// pathOffsets returns, for every function, the predicted delay from request
// arrival until the function's input is ready: the maximum over incoming
// paths of the sum of upstream inference times under the given configs.
func pathOffsets(g *dag.Graph, profiles map[dag.NodeID]*perfmodel.Profile, configs map[dag.NodeID]hardware.Config, batch int) map[dag.NodeID]float64 {
	off := make(map[dag.NodeID]float64, g.Len())
	for _, id := range g.TopoSort() {
		best := 0.0
		for _, p := range g.Predecessors(id) {
			end := off[p] + profiles[p].InferenceTime(configs[p], batch)
			if end > best {
				best = end
			}
		}
		off[id] = best
	}
	return off
}

// criticalPathLatency returns the E2E latency implied by configs with all
// initializations hidden: max over sinks of offset + inference.
func criticalPathLatency(g *dag.Graph, profiles map[dag.NodeID]*perfmodel.Profile, configs map[dag.NodeID]hardware.Config, batch int) float64 {
	off := pathOffsets(g, profiles, configs, batch)
	best := 0.0
	for _, id := range g.Nodes() {
		end := off[id] + profiles[id].InferenceTime(configs[id], batch)
		if end > best {
			best = end
		}
	}
	return best
}

// meanInterArrival estimates the mean gap between the trailing arrivals; a
// fallback when a system has no predictor. Returns def when fewer than two
// arrivals exist.
func meanInterArrival(arrivals []float64, tail int, def float64) float64 {
	if len(arrivals) < 2 {
		return def
	}
	start := len(arrivals) - tail
	if start < 0 {
		start = 0
	}
	seg := arrivals[start:]
	if len(seg) < 2 {
		return def
	}
	return (seg[len(seg)-1] - seg[0]) / float64(len(seg)-1)
}
