// Package tracing is the simulator's observability substrate: a
// deterministic per-invocation span recorder in the style of serverless DAG
// profilers (GrandSLAm's per-stage latency decomposition, Orion's per-stage
// modeling). Every invocation of every DAG function emits a span tree with
// typed phases — gateway queue, batch wait, unhidden cold initialization,
// execution, failed attempts, retry backoff — carrying (function, config,
// policy, attempt) attributes. A critical-path pass (critical.go) walks each
// completed request's spans and attributes its end-to-end latency, and any
// SLA violation, to phases and functions; an exporter (chrome.go) writes the
// whole recording as Chrome trace-event JSON loadable in chrome://tracing
// or Perfetto.
//
// The recorder is driven exclusively by the simulator clock: it never reads
// wall time, never draws randomness, and keeps every output path ordered by
// stable IDs (allocation order), so a traced run is replayable — the same
// seeded run produces byte-identical trace JSON. Attaching a recorder does
// not perturb the simulation: the simulator gates every emission on the
// recorder being present and the recorder only observes.
//
//lint:deterministic
package tracing

import "smiless/internal/dag"

// Phase is the typed cause a span segment attributes time to.
type Phase int

const (
	// PhaseQueue is gateway/function-queue time: the invocation's input was
	// ready but no instance was available or assigned yet.
	PhaseQueue Phase = iota
	// PhaseBatchWait is time spent waiting to join a busy instance's next
	// batch (the dispatch that ended the wait was a batch rotation).
	PhaseBatchWait
	// PhaseColdInit is unhidden initialization: the invocation waited on a
	// container that was still warming up.
	PhaseColdInit
	// PhaseExec is execution time on an instance.
	PhaseExec
	// PhaseFailedAttempt is execution time lost to an attempt that crashed,
	// timed out, or was evicted with its node.
	PhaseFailedAttempt
	// PhaseBackoff is retry-backoff delay between a failed attempt and its
	// re-dispatch becoming ready.
	PhaseBackoff
	// NumPhases is the number of typed phases.
	NumPhases
)

// String implements fmt.Stringer; the names appear in trace-event output.
func (p Phase) String() string {
	switch p {
	case PhaseQueue:
		return "queue"
	case PhaseBatchWait:
		return "batch-wait"
	case PhaseColdInit:
		return "cold-init"
	case PhaseExec:
		return "exec"
	case PhaseFailedAttempt:
		return "failed-attempt"
	case PhaseBackoff:
		return "backoff"
	default:
		return "phase-?"
	}
}

// Segment is one contiguous stretch of a node span's lifetime attributed to
// a single phase. Times are simulation seconds.
type Segment struct {
	Phase      Phase
	Start, End float64
}

// NodeSpan records one member's journey through one DAG function for one
// request: a primary attempt chain, or a hedge twin. Segments are appended
// in time order and, for the winning member, cover [FirstReady, End].
type NodeSpan struct {
	ID  int // stable span id, allocation order
	Req int // request (application invocation) id
	// Node is the DAG function name.
	Node string
	// IsHedge marks the duplicate launched by hedging.
	IsHedge bool
	// FirstReady is when the function's input first became ready (for a
	// hedge twin: when the hedge was launched).
	FirstReady float64
	// End is when the member finished (won, lost, or failed terminally).
	End float64
	// Ended reports whether the member's final execution completed.
	Ended bool
	// Won marks the member whose completion advanced the request (the first
	// completion under hedging).
	Won bool
	// Discarded marks a completed member whose result was thrown away
	// (its node was already done, or its request had failed).
	Discarded bool
	// Attempts counts dispatches of this member (>1 after retries).
	Attempts int
	// Container, Config and Policy describe the last instance the member
	// ran on and the cold-start policy in force at dispatch.
	Container int
	Config    string
	Policy    string
	// Batch is the realized batch size of the last dispatch.
	Batch int
	// Segs is the time-ordered phase decomposition.
	Segs []Segment

	waitStart float64
	execOpen  bool
	execStart float64
}

// appendSeg records a non-empty segment.
func (sp *NodeSpan) appendSeg(ph Phase, start, end float64) {
	if end > start {
		sp.Segs = append(sp.Segs, Segment{Phase: ph, Start: start, End: end})
	}
}

// WaitFrom restarts the wait clock (a backed-off retry became ready).
func (sp *NodeSpan) WaitFrom(t float64) {
	if sp == nil {
		return
	}
	sp.waitStart = t
}

// Dispatch closes the current wait as segments and opens an execution
// segment. cause classifies the wait that just ended: PhaseColdInit when the
// dispatching container just finished initializing (the wait after the
// container's initStart is attributed to unhidden cold start, any earlier
// wait to queue), PhaseBatchWait for a batch rotation on a busy instance,
// PhaseQueue otherwise.
func (sp *NodeSpan) Dispatch(t float64, cause Phase, initStart float64, container int, config, policy string, batch int) {
	if sp == nil {
		return
	}
	sp.Attempts++
	sp.Container = container
	sp.Config = config
	sp.Policy = policy
	sp.Batch = batch
	if cause == PhaseColdInit {
		split := initStart
		if split < sp.waitStart {
			split = sp.waitStart
		}
		if split > t {
			split = t
		}
		sp.appendSeg(PhaseQueue, sp.waitStart, split)
		sp.appendSeg(PhaseColdInit, split, t)
	} else {
		sp.appendSeg(cause, sp.waitStart, t)
	}
	sp.execOpen = true
	sp.execStart = t
}

// closeExec closes the open execution segment under the given phase.
func (sp *NodeSpan) closeExec(ph Phase, t float64) {
	if sp.execOpen {
		sp.appendSeg(ph, sp.execStart, t)
		sp.execOpen = false
	}
}

// Finish marks the member's final execution complete. won reports whether
// this completion advanced the request (first completion wins under
// hedging); a losing or stale completion is recorded as discarded.
func (sp *NodeSpan) Finish(t float64, won bool) {
	if sp == nil {
		return
	}
	sp.closeExec(PhaseExec, t)
	sp.End = t
	sp.Ended = true
	sp.Won = won
	sp.Discarded = !won
}

// Fail closes the open execution segment as a failed attempt (crash,
// timeout or eviction) and restarts the wait clock so an immediate
// re-dispatch is classified as queueing.
func (sp *NodeSpan) Fail(t float64) {
	if sp == nil {
		return
	}
	sp.closeExec(PhaseFailedAttempt, t)
	sp.waitStart = t
}

// Backoff records a retry-backoff delay segment [from, until] and moves the
// wait clock to its end.
func (sp *NodeSpan) Backoff(from, until float64) {
	if sp == nil {
		return
	}
	sp.appendSeg(PhaseBackoff, from, until)
	sp.waitStart = until
}

// RequestTrace is the span tree of one application invocation.
type RequestTrace struct {
	ID      int
	Arrival float64
	End     float64
	Done    bool
	Failed  bool
	// Nodes holds member spans in creation order (primaries before their
	// hedge twins; DAG order follows the simulation's event order).
	Nodes []*NodeSpan
	// Breakdown is the critical-path attribution, set on completion.
	Breakdown *Breakdown
}

// ContainerKind discriminates container-track spans.
type ContainerKind int

const (
	// ContainerInit is an initialization (cold start or pre-warm).
	ContainerInit ContainerKind = iota
	// ContainerExec is one batch execution.
	ContainerExec
)

// ContainerSpan is one instance-lifecycle span on the cluster track:
// an initialization (including pre-warm leads) or a batch execution.
type ContainerSpan struct {
	Container int
	Fn        string
	Config    string
	Kind      ContainerKind
	// Node is the cluster node the instance is placed on, or -1 when the
	// runtime does not track placement.
	Node  int
	Start float64
	End   float64
	Open  bool
	// Prewarmed marks initializations launched by a pre-warm rather than by
	// waiting work: the pre-warm lead the planner scheduled.
	Prewarmed bool
	// Gated marks initializations that completed with work already waiting
	// (the cold start was on a request path).
	Gated bool
	// Failed marks spans ended by an injected crash or eviction.
	Failed bool
	// Batch is the batch size (ContainerExec only).
	Batch int
}

// KV is one ordered attribute on an instant event. Values are preformatted
// strings so the exporter stays type-free and deterministic.
type KV struct {
	Key string
	Val string
}

// Instant is a zero-duration marker event (decision windows, re-plans).
type Instant struct {
	Time float64
	Name string
	Args []KV
}

// Recorder accumulates one run's spans. It is safe for the single-threaded
// simulator loop only; all collections are slices appended in event order so
// exports are reproducible. The zero value is not usable; construct with
// NewRecorder.
type Recorder struct {
	nodes     []string       // DAG node names in graph order
	nodeIdx   map[string]int // name -> order index (lookup only)
	preds     [][]int        // predecessor order-indices per node
	requests  []*RequestTrace
	conts     []*ContainerSpan
	openInit  map[int]int // container id -> index into conts (open init)
	openExec  map[int]int // container id -> index into conts (open exec)
	instants  []Instant
	breakdown []Breakdown // completed requests in completion order
	spanSeq   int
}

// NewRecorder builds a recorder for one run over the given application DAG.
// The graph fixes the deterministic node ordering used for critical-path
// tie-breaks and export lanes.
func NewRecorder(g *dag.Graph) *Recorder {
	ids := g.Nodes()
	r := &Recorder{
		nodes:    make([]string, len(ids)),
		nodeIdx:  make(map[string]int, len(ids)),
		preds:    make([][]int, len(ids)),
		openInit: make(map[int]int),
		openExec: make(map[int]int),
	}
	for i, id := range ids {
		r.nodes[i] = string(id)
		r.nodeIdx[string(id)] = i
	}
	for i, id := range ids {
		for _, p := range g.Predecessors(id) {
			r.preds[i] = append(r.preds[i], r.nodeIdx[string(p)])
		}
	}
	return r
}

// BeginRequest opens the root span of one application invocation. Request
// ids must be assigned sequentially from zero (the simulator's invocation
// counter), which keeps the request list index-addressable without maps.
func (r *Recorder) BeginRequest(id int, t float64) {
	for len(r.requests) <= id {
		r.requests = append(r.requests, nil)
	}
	r.requests[id] = &RequestTrace{ID: id, Arrival: t}
}

// request returns the trace for a request id, or nil.
func (r *Recorder) request(id int) *RequestTrace {
	if id < 0 || id >= len(r.requests) {
		return nil
	}
	return r.requests[id]
}

// BeginNode opens a member span for one DAG function of one request at the
// time its input became ready (or, for a hedge twin, the hedge launch time).
func (r *Recorder) BeginNode(req int, node string, t float64, isHedge bool) *NodeSpan {
	rt := r.request(req)
	if rt == nil {
		return nil
	}
	r.spanSeq++
	sp := &NodeSpan{ID: r.spanSeq, Req: req, Node: node, IsHedge: isHedge, FirstReady: t, waitStart: t}
	rt.Nodes = append(rt.Nodes, sp)
	return sp
}

// FailRequest marks a request permanently failed (retries exhausted).
func (r *Recorder) FailRequest(id int, t float64) {
	if rt := r.request(id); rt != nil {
		rt.Failed = true
		rt.End = t
	}
}

// CompleteRequest closes a request's root span and runs the critical-path
// pass, returning the resulting attribution.
func (r *Recorder) CompleteRequest(id int, t float64) Breakdown {
	rt := r.request(id)
	if rt == nil {
		return Breakdown{Req: id}
	}
	rt.Done = true
	rt.End = t
	bd := r.criticalPath(rt)
	rt.Breakdown = &bd
	r.breakdown = append(r.breakdown, bd)
	return bd
}

// Breakdowns returns the critical-path attributions of all completed
// requests in completion order.
func (r *Recorder) Breakdowns() []Breakdown { return r.breakdown }

// Requests returns all request traces in arrival (id) order. Entries may be
// nil for ids never begun.
func (r *Recorder) Requests() []*RequestTrace { return r.requests }

// BeginInit opens an initialization span on the cluster track. node is the
// placement node index, or -1 when the caller does not track placement.
func (r *Recorder) BeginInit(container int, fn, config string, node int, t float64, prewarmed bool) {
	r.conts = append(r.conts, &ContainerSpan{
		Container: container, Fn: fn, Config: config, Kind: ContainerInit,
		Node: node, Start: t, Open: true, Prewarmed: prewarmed,
	})
	r.openInit[container] = len(r.conts) - 1
}

// EndInit closes a container's open initialization span.
func (r *Recorder) EndInit(container int, t float64, gated, failed bool) {
	i, ok := r.openInit[container]
	if !ok {
		return
	}
	delete(r.openInit, container)
	cs := r.conts[i]
	cs.End = t
	cs.Open = false
	cs.Gated = gated
	cs.Failed = failed
}

// BeginExec opens a batch-execution span on the cluster track. node is the
// placement node index, or -1 when the caller does not track placement.
func (r *Recorder) BeginExec(container int, fn, config string, node int, t float64, batch int) {
	r.conts = append(r.conts, &ContainerSpan{
		Container: container, Fn: fn, Config: config, Kind: ContainerExec,
		Node: node, Start: t, Open: true, Batch: batch,
	})
	r.openExec[container] = len(r.conts) - 1
}

// EndExec closes a container's open batch-execution span.
func (r *Recorder) EndExec(container int, t float64, failed bool) {
	i, ok := r.openExec[container]
	if !ok {
		return
	}
	delete(r.openExec, container)
	cs := r.conts[i]
	cs.End = t
	cs.Open = false
	cs.Failed = failed
}

// ContainerGone closes any span still open for a terminated container
// (eviction, init crash, or end-of-run cleanup) as failed at time t.
func (r *Recorder) ContainerGone(container int, t float64) {
	r.EndInit(container, t, false, true)
	r.EndExec(container, t, true)
}

// ContainerSpans returns the cluster-track spans in begin order.
func (r *Recorder) ContainerSpans() []*ContainerSpan { return r.conts }

// AddInstant records a zero-duration marker (decision window, re-plan) with
// ordered attributes. Attribute values must be deterministic for the run —
// wall-clock timings would break byte-identical replay.
func (r *Recorder) AddInstant(t float64, name string, args []KV) {
	r.instants = append(r.instants, Instant{Time: t, Name: name, Args: args})
}

// Instants returns the recorded markers in emission order.
func (r *Recorder) Instants() []Instant { return r.instants }
