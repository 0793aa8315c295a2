// Package serving is the online serving runtime: the wall-clock front end
// of the executor engine (simulator.Engine) whose other front end is the
// deterministic discrete-event simulator. The container state machine —
// cold starts, keep-alive timers, pre-warms, batching, retries, hedging,
// node health and failover, billing — is the engine's, written once; this
// package adds what only a live substrate has: real concurrent requests
// (Invoke, admission control, per-request deadlines, abandonment, result
// delivery), a clock, Drain/Close, the locked chaos surface and the HTTP
// gateway.
//
// The Runtime runs the engine, which hands drivers the same
// simulator.ControlPlane as the simulator does, so SMIless and every
// baseline Driver runs unchanged on a live gateway. Time
// is abstracted behind clock.Scheduler (internal/clock): a Wall clock in
// production, a ScaledWall for accelerated replays, and a Fake in tests, so
// the concurrent integration tests cover minutes of model latency in
// milliseconds without sleeping.
//
// # Architecture
//
// Every future transition is an event on the engine's deadline-ordered
// queue, run under the runtime mutex, each event at one clock reading handed
// to the engine, by whoever makes it due: Invoke runs what is due, admits its
// arrival and runs what that made due; the runtime's one clock.Timer, armed
// at the earliest deadline, calls a function that runs what the clock made
// due. The runtime owns no goroutine. This gives three properties for free:
//
//   - one engine and one same-instant order with the simulator: the same
//     seeded trace yields DeepEqual statistics on both front ends
//     (TestDifferentialSimulatorServing);
//   - tracing.Recorder and faults.Injector, which are single-threaded by
//     contract, are only ever touched under the mutex;
//   - with a Fake clock each event is processed exactly at its
//     deadline, so integration tests can assert latencies to float
//     precision.
//
// The engine owns the node pool, its capacity and its placement policies,
// as in the simulator; Config.Cluster is the pool, by default one node
// whose capacity never binds. GPU MPS contention stays simulator-only. Fault
// injection takes the same faults.Plan as the simulator: its rates and its
// NodeFault entries (crash, partition) alike.
//
// # Multi-node control plane
//
// On more than one node, new containers land by Config.Placement: the first
// up node with room, the function's locality home with power-of-two-choices
// overflow, or the affinity policies; a launch that finds no up node with
// room waits for one (CapacityBlocked). The engine's deterministic
// health-gossip failure detector walks nodes through
// up → suspect → down as heartbeats go missing and recovers them when
// heartbeats resume; a node declared down has its in-flight requests failed
// over to live peers under first-completion-wins idempotency — no request is
// lost or duplicated, even when a healed partition replays the original
// completions. Node crashes, restarts and partitions can be scheduled via
// faults.Plan.NodeFaults, injected live through
// KillNode/RestartNode/SetPartitioned, and observed via NodeInfos.
//
// # Batching (§V-D)
//
// Beyond passive aggregation (requests joining a busy or initializing
// instance's next batch), the runtime hands the engine an active batch
// window: when a function's directive asks for Batch > 1 and a warm
// instance is idle, dispatch is held for up to Config.BatchLinger seconds
// waiting for the batch to fill. The window closes early the moment the
// batch is full; a partial batch dispatches when it expires.
package serving

import (
	"errors"

	"smiless/internal/apps"
	"smiless/internal/clock"
	"smiless/internal/faults"
	"smiless/internal/hardware"
	"smiless/internal/placement"
	"smiless/internal/simulator"
	"smiless/internal/tracing"
)

// Config parameterizes a serving runtime.
type Config struct {
	// App is the application under management.
	App *apps.Application
	// SLA is the end-to-end latency bound in seconds (default 2).
	SLA float64
	// Window is the decision-window length in seconds (default 1): the
	// cadence at which the driver's OnWindow runs.
	Window float64
	// Seed drives all sampled executor timings.
	Seed int64
	// BatchLinger is the batch aggregation window in seconds: how long a
	// function with Batch > 1 holds dispatch onto an idle instance waiting
	// for the batch to fill. Zero disables active aggregation (batches
	// still form passively on busy or initializing instances).
	BatchLinger float64
	// MaxInflight caps concurrently admitted requests; further Invoke
	// calls fail with ErrOverloaded until one resolves (default 256).
	MaxInflight int
	// QueueCap bounds each entry function's ready queue; arrivals that
	// would overflow it are rejected with ErrOverloaded (default 1024).
	QueueCap int
	// Pricing holds unit costs for the cost ledger (default
	// hardware.DefaultPricing).
	Pricing hardware.Pricing
	// Faults optionally injects failures — container crashes, stragglers,
	// timeouts, node crashes and partitions — through the same plan the
	// simulator uses.
	Faults *faults.Plan
	// Recorder, when non-nil, records per-invocation span trees and
	// critical-path breakdowns from the live run, exportable as a Chrome
	// trace. All recorder calls are serialized under the runtime mutex.
	Recorder *tracing.Recorder
	// Clock is the time source and timer substrate (default a fresh
	// clock.Wall). Inject a clock.Fake in tests or a clock.ScaledWall for
	// accelerated replays.
	Clock clock.Scheduler
	// Cluster is the node pool the executor runs on, one node agent per
	// entry (default hardware.UnboundedCluster(1): one node whose capacity
	// never binds). With more than one node the health-gossip failure
	// detector runs.
	Cluster hardware.ClusterSpec
	// GossipInterval is the failure-detector tick period in seconds
	// (default 0.25). SuspectAfter and DownAfter are how long a node must
	// miss heartbeats before it is suspected (default 2×GossipInterval)
	// and declared down with failover (default 2×SuspectAfter).
	GossipInterval float64
	SuspectAfter   float64
	DownAfter      float64
	// DefaultDeadline, when positive, bounds every request's end-to-end
	// latency in model seconds: requests still unresolved at the deadline
	// fail with Result.DeadlineExceeded. Per-request deadlines via
	// InvokeWithDeadline override it.
	DefaultDeadline float64
	// Placement selects the node-placement policy, the simulator's:
	// first-fit (default), P2C locality overflow, affinity packing, or
	// interference spreading.
	Placement simulator.PlacementPolicy
	// Interference is the optional co-location interference model
	// (internal/placement): sampled init and inference durations are
	// inflated by the model's slowdown over a container's node
	// co-residents. Nil — or a model whose slowdown is 1 everywhere —
	// leaves every timing byte-identical to an interference-blind run.
	Interference *placement.Model
	// PriceTrace is the optional spot-price scenario: container lifetimes
	// are billed at the in-effect multiplier and the trace's preemption
	// windows withdraw nodes (containers evicted, work failed over). Nil
	// bills static prices; FlatTrace(1) is bit-identical to nil.
	PriceTrace *hardware.PriceTrace
}

// withDefaults checks and defaults the fields only a runtime has, and the
// cluster; the engine validates the rest (simulator.Config).
func (cfg Config) withDefaults() (Config, error) {
	if cfg.BatchLinger < 0 {
		return cfg, &simulator.ConfigError{Field: "BatchLinger", Reason: "must not be negative"}
	}
	if cfg.DefaultDeadline < 0 {
		return cfg, &simulator.ConfigError{Field: "DefaultDeadline", Reason: "must not be negative"}
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 256
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 1024
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.NewWall()
	}
	if cfg.Cluster.Nodes == nil {
		cfg.Cluster = hardware.UnboundedCluster(1)
	}
	return cfg, nil
}

// engineConfig is the engine's share of cfg.
func (cfg Config) engineConfig() simulator.Config {
	return simulator.Config{
		App: cfg.App, Cluster: cfg.Cluster, SLA: cfg.SLA, Window: cfg.Window, Seed: cfg.Seed,
		Pricing: cfg.Pricing, Placement: cfg.Placement,
		GossipInterval: cfg.GossipInterval, SuspectAfter: cfg.SuspectAfter, DownAfter: cfg.DownAfter,
		Interference: cfg.Interference, PriceTrace: cfg.PriceTrace, Faults: cfg.Faults,
	}
}

// Admission and lifecycle errors returned by Invoke.
var (
	// ErrOverloaded means admission control rejected the request: the
	// inflight cap or an entry queue bound was hit. Gateways map it to
	// HTTP 429.
	ErrOverloaded = errors.New("serving: overloaded")
	// ErrDraining means the runtime is draining ahead of shutdown and no
	// longer admits work. Gateways map it to HTTP 503.
	ErrDraining = errors.New("serving: draining")
	// ErrClosed means the runtime has been closed.
	ErrClosed = errors.New("serving: closed")
)

// Result is the terminal outcome of one admitted request.
type Result struct {
	// ReqID is the runtime-assigned request id (matches tracing spans).
	ReqID int
	// Arrival and End are model-time seconds since the runtime's epoch.
	Arrival float64
	End     float64
	// E2E is End − Arrival.
	E2E float64
	// Failed reports that the request did not complete: retries exhausted,
	// deadline exceeded, or abandoned by its caller.
	Failed bool
	// DeadlineExceeded reports that the request's per-request deadline
	// elapsed before it resolved (implies Failed).
	DeadlineExceeded bool
	// Abandoned reports that the caller's context was cancelled before the
	// request resolved (implies Failed).
	Abandoned bool
	// SLAViolated reports E2E > SLA for completed requests.
	SLAViolated bool
}
