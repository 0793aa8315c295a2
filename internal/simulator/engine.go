// Package simulator is the serverless-cluster substrate replacing the
// paper's OpenFaaS/Kubernetes testbed (§VI): a discrete-event simulation of
// container lifecycles (initialization, inference, idle keep-alive,
// termination), DAG request routing, batching agents, MPS-style fractional
// GPU allocation, per-second billing, and pre-warm timers.
//
// The simulator is policy-agnostic: a Driver (the SMIless controller or one
// of the baseline systems) installs per-function Directives and may schedule
// pre-warm events; the simulator realizes them against sampled ground-truth
// timings and accounts cost exactly as Eq. (3) does — billed
// instance-seconds times unit cost.
//
//lint:deterministic
package simulator

// eventKind discriminates simulator events.
type eventKind int

const (
	evInitDone       eventKind = iota // container finished initializing
	evExecDone                        // container finished a batch
	evIdleTimeout                     // keep-alive queue entry due
	evPrewarm                         // scheduled pre-warm point
	evInitFail                        // injected crash mid-initialization
	evExecFail                        // injected crash mid-execution
	evExecTimeout                     // gateway per-attempt timeout fired
	evHedge                           // hedge point for a slow single execution
	evRetry                           // backed-off retry becomes ready
	evNodeDown                        // node outage begins
	evNodeUp                          // node outage ends
	evNodeCrash                       // node process dies silently
	evNodeRestart                     // crashed node rejoins empty
	evPartitionStart                  // node becomes unreachable
	evPartitionEnd                    // partition heals, held completions deliver
	evGossip                          // health-gossip tick: advance suspect/down/recovered
	evPreempt                         // spot preemption window begins
	evPreemptEnd                      // preempted capacity returns
)

// nodeSide reports whether the event is a completion or failure emitted by
// the container's own node — lost with a crashed node, delayed by a
// partition — as opposed to gateway-side timers (timeouts, hedges, idle
// reaping), which the control plane runs regardless of node reachability.
func (e *event) nodeSide() bool {
	switch e.kind {
	case evInitDone, evExecDone, evInitFail, evExecFail:
		return true
	}
	return false
}

// event is one queued occurrence, stored by value in the run's eventq.Queue
// (which carries its time). Application arrivals and decision-window ticks
// are not events: Run merges them in from the trace and a counter.
type event struct {
	kind eventKind
	// c is the container of a container event; epoch its idle-timer
	// generation or batch sequence (stale events are ignored).
	c     *container
	epoch int
	node  int      // node events
	fs    *fnState // prewarm target
	ni    *nodeInv // retried invocation (evRetry)
}
