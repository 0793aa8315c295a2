package simulator

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"smiless/internal/apps"
	"smiless/internal/coldstart"
	"smiless/internal/faults"
	"smiless/internal/hardware"
	"smiless/internal/placement"
	"smiless/internal/trace"
)

// Directive is the per-function policy a Driver installs: the realized form
// of (⋆_k, △_k) plus the Auto-scaler's batch and instance counts.
type Directive struct {
	// Config is the hardware configuration for new instances.
	Config hardware.Config
	// Policy selects the cold-start behaviour after a batch completes.
	Policy coldstart.Policy
	// KeepAlive is how long an idle instance survives before termination
	// (KeepAlive/AlwaysOn policies; AlwaysOn ignores it and never expires).
	KeepAlive float64
	// PrewarmLead is the estimated initialization time used to schedule
	// pre-warm starts (μ + n·σ from the profile).
	PrewarmLead float64
	// PathOffset is the predicted delay from request arrival until this
	// function's input is ready (sum of upstream critical-path inference
	// times); used by reactive pre-warming.
	PathOffset float64
	// PrewarmOnArrival launches initialization when an application request
	// arrives, timed so it completes as the function's input arrives
	// (Orion-style "right pre-warming", also SMIless' fallback when a
	// predicted arrival was missed).
	PrewarmOnArrival bool
	// Batch is the maximum invocations executed together per instance.
	Batch int
	// Instances caps reactively launched concurrent instances.
	Instances int
	// MinWarm keeps at least this many instances resident: an idle
	// timeout that would drop the live count below MinWarm re-arms
	// instead of terminating.
	MinWarm int
	// Retry is the gateway's recovery policy for this function: a
	// per-attempt timeout plus exponential backoff with jitter. The zero
	// value disables both (failed work is lost when faults are injected
	// and no retry policy is installed).
	Retry faults.RetryPolicy
	// HedgeDelay launches a duplicate of a single-invocation execution on
	// a second warm instance once the first has run this long; the first
	// completion wins and the loser is discarded (0 disables hedging).
	HedgeDelay float64
}

// normalized fills defaults.
func (d Directive) normalized() Directive {
	if d.Batch < 1 {
		d.Batch = 1
	}
	if d.Instances < 1 {
		d.Instances = 1
	}
	return d
}

// Driver is the decision-making system under evaluation (SMIless or a
// baseline). It installs Directives and may schedule pre-warms. Drivers are
// written against the ControlPlane interface, so the same driver runs on the
// discrete-event simulator and on the wall-clock serving runtime
// (internal/serving) unchanged.
type Driver interface {
	// Name labels the system in experiment output.
	Name() string
	// Setup is called once before the run; the driver installs initial
	// directives here.
	Setup(cp ControlPlane)
	// OnWindow is called at every decision-window boundary with the
	// current time; the driver may update directives, schedule pre-warms
	// and rescale.
	OnWindow(cp ControlPlane, now float64)
}

// PlacementPolicy selects how launches are placed onto cluster nodes.
type PlacementPolicy int

const (
	// PlaceFirstFit scans nodes in index order and takes the first with
	// capacity — the default, byte-identical to earlier releases.
	PlaceFirstFit PlacementPolicy = iota
	// PlaceP2C routes by locality: a function's home node (a stable hash
	// of its name) keeps the launch while it has capacity, and overflow
	// forwards to the less loaded of two randomly sampled peers
	// (power-of-two-choices). Draws come from a dedicated placement RNG,
	// so enabling it never perturbs the ground-truth timing stream.
	PlaceP2C
	// PlacePack is affinity packing: among nodes with capacity, the launch
	// goes to the one already hosting the most same-class work (scored by
	// interference-weighted memory-bandwidth pressure), concentrating each
	// class on few nodes. Ties break to the lower index.
	PlacePack
	// PlaceSpread is interference spreading: the launch goes to the node
	// where the function's class sees the least co-location pressure,
	// trading locality for isolation. Ties break to the lower index.
	PlaceSpread
)

// Config parameterizes a run of the engine: a simulation (New) or a live
// runtime (LiveEngine.InitLive).
type Config struct {
	App *apps.Application
	// Cluster is the node pool, one node agent per entry with its cores
	// and GPUs (default hardware.DefaultCluster, the paper's testbed).
	Cluster hardware.ClusterSpec
	Pricing hardware.Pricing
	// Placement selects the node-placement policy (default PlaceFirstFit).
	Placement PlacementPolicy
	// GossipInterval is the health-detector tick period in seconds
	// (default 0.25). SuspectAfter and DownAfter are how long a node must
	// miss heartbeats before it is suspected (default 2×GossipInterval)
	// and declared down with its in-flight work failed over (default
	// 2×SuspectAfter). Only consulted when Faults carries NodeFaults or a
	// live runtime has more than one node.
	GossipInterval float64
	SuspectAfter   float64
	DownAfter      float64
	// SLA is the end-to-end latency bound in seconds.
	SLA float64
	// Window is the decision-window length; the paper uses one second.
	Window float64
	// StatsAfter excludes requests arriving before this time from the
	// latency/violation statistics: the measurement warm-up, during which
	// predictors train and the initial plan converges. Cost is always
	// accounted for the full run. Zero measures everything.
	StatsAfter float64
	// GPUContention scales the latency penalty for co-located MPS slices:
	// an instance holding share s on a node with u percent total GPU usage
	// runs (1 + GPUContention·(u−s)/100)× slower — the PCIe/memory
	// bandwidth sharing the paper mitigates with the 10% allocation floor
	// (§IV-A2). Zero disables contention.
	GPUContention float64
	// Interference is the optional co-location interference model
	// (internal/placement): when set, a container's sampled init and
	// inference durations are inflated by the model's slowdown over the
	// other live containers on its node. Nil — or a model whose slowdown
	// is exactly 1 everywhere — leaves every timing byte-identical to an
	// interference-blind run.
	Interference *placement.Model
	// PriceTrace is the optional spot-price scenario: container lifetimes
	// are billed at the in-effect multiplier (∫ multiplier dt × unit cost)
	// and the trace's preemption windows withdraw nodes, evicting their
	// containers with control-plane failover. Nil bills static on-demand
	// prices; FlatTrace(1) is bit-identical to nil.
	PriceTrace *hardware.PriceTrace
	// Seed drives all sampled timings.
	Seed int64
	// Faults is the optional failure-injection plan: crash probabilities,
	// straggler inflation and scheduled node faults. Nil (or a plan with all
	// rates zero and no node faults) leaves every code path identical to a
	// fault-free run — the injector draws from its own RNG stream, so
	// enabling it never perturbs the ground-truth timing samples.
	Faults *faults.Plan
}

// Simulator runs one (application, driver, trace) evaluation: the Engine on
// virtual time, fed by a cursor over the trace's arrivals and run until the
// workload has quiesced.
type Simulator struct {
	Engine
	// handled counts every arrival and queue event processed.
	handled int
}

// ConfigError reports an invalid configuration field, of a simulator or of
// a serving runtime.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("invalid config: %s %s", e.Field, e.Reason)
}

// ErrEmptyTrace is returned by Run when the trace carries no arrivals.
var ErrEmptyTrace = errors.New("simulator: empty trace")

// New prepares a simulator for the given run configuration and driver. It
// returns a *ConfigError when the configuration is structurally invalid
// (see Config.normalized).
func New(cfg Config, driver Driver) (*Simulator, error) {
	cfg, err := cfg.normalized(driver)
	if err != nil {
		return nil, err
	}
	s := &Simulator{}
	s.init(cfg, driver)
	return s, nil
}

// normalized is the one validation of a Config, for both front ends: it
// rejects a nil driver, a missing application, a negative SLA, window or
// detector timing, a cluster of no nodes, and node faults or preemption windows that name no node
// or end before they start; it fills the defaults — SLA 2 s, 1 s windows,
// the paper's cluster, default pricing and detector timings.
func (cfg Config) normalized(driver Driver) (Config, error) {
	if driver == nil {
		return cfg, &ConfigError{Field: "driver", Reason: "must not be nil"}
	}
	if cfg.App == nil || cfg.App.Graph == nil || cfg.App.Graph.Len() == 0 {
		return cfg, &ConfigError{Field: "App", Reason: "must have a non-empty graph"}
	}
	if cfg.SLA < 0 {
		return cfg, &ConfigError{Field: "SLA", Reason: "must not be negative"}
	}
	if cfg.Window < 0 {
		return cfg, &ConfigError{Field: "Window", Reason: "must not be negative"}
	}
	if cfg.GossipInterval < 0 || cfg.SuspectAfter < 0 || cfg.DownAfter < 0 {
		return cfg, &ConfigError{Field: "GossipInterval", Reason: "detector timings must not be negative"}
	}
	if cfg.Window <= 0 {
		cfg.Window = 1
	}
	if cfg.SLA <= 0 {
		cfg.SLA = 2
	}
	if cfg.Cluster.Nodes == nil {
		cfg.Cluster = hardware.DefaultCluster()
	} else if len(cfg.Cluster.Nodes) == 0 {
		return cfg, &ConfigError{Field: "Cluster", Reason: "must have a node"}
	}
	if cfg.Pricing == (hardware.Pricing{}) {
		cfg.Pricing = hardware.DefaultPricing
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = 0.25
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 2 * cfg.GossipInterval
	}
	if cfg.DownAfter <= cfg.SuspectAfter {
		cfg.DownAfter = 2 * cfg.SuspectAfter
	}
	if cfg.Faults != nil {
		for _, nf := range cfg.Faults.NodeFaults {
			if nf.Node < 0 || nf.Node >= len(cfg.Cluster.Nodes) {
				return cfg, &ConfigError{Field: "Faults.NodeFaults", Reason: fmt.Sprintf("node %d out of range", nf.Node)}
			}
			if nf.Kind == faults.NodePartition && nf.End <= nf.Start {
				return cfg, &ConfigError{Field: "Faults.NodeFaults", Reason: fmt.Sprintf("partition of node %d must have End > Start", nf.Node)}
			}
		}
	}
	if cfg.PriceTrace != nil {
		for _, w := range cfg.PriceTrace.Preemptions {
			if w.Node < 0 || w.Node >= len(cfg.Cluster.Nodes) {
				return cfg, &ConfigError{Field: "PriceTrace.Preemptions", Reason: fmt.Sprintf("node %d out of range", w.Node)}
			}
			if w.End <= w.Start {
				return cfg, &ConfigError{Field: "PriceTrace.Preemptions", Reason: fmt.Sprintf("window on node %d must have End > Start", w.Node)}
			}
		}
	}
	return cfg, nil
}

// MustNew is New that panics on configuration error, for tests and
// experiment harnesses whose configs are statically known to be valid.
func MustNew(cfg Config, driver Driver) *Simulator {
	s, err := New(cfg, driver)
	if err != nil {
		panic(err)
	}
	return s
}

// Run replays the trace through the simulator and returns the collected
// statistics. A nil or empty trace returns ErrEmptyTrace.
//
// Two sources feed the loop: a cursor over the trace's arrivals and the
// engine's event queue, which holds the decision-window tick (every Window,
// up to the first tick past trace.Horizon) with everything else. The
// earliest goes first; on one timestamp every queued event precedes the
// arrival (see Engine).
//
// End of run: the run ends at the first event past trace.Horizon that leaves
// every request resolved — completed or failed — and no container busy or
// initializing; containers still warm are billed up to that instant. With
// nothing in flight that is the first window tick past the horizon, unless a
// keep-alive expiry, pre-warm timer or node event falls before it. A
// keep-alive queue entry that comes due only to find its deadline voided by
// a batch or moved by a re-arm is bookkeeping, not an event. Nothing past the
// safety horizon, trace.Horizon + 600 s, is run.
func (s *Simulator) Run(tr *trace.Trace) (*RunStats, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, ErrEmptyTrace
	}
	arrivals := tr.Arrivals
	if !sort.Float64sAreSorted(arrivals) {
		arrivals = slices.Clone(arrivals)
		sort.Float64s(arrivals)
	}
	horizon := tr.Horizon + 600
	s.lastTick = tr.Horizon + s.cfg.Window
	s.begin()

	for {
		at, pending := s.events.NextAt()
		arrival := len(arrivals) > 0 && (!pending || arrivals[0] < at)
		if arrival {
			at = arrivals[0]
		} else if !pending {
			break
		}
		if at > horizon {
			break
		}
		if at < s.now-1e-9 {
			panic(fmt.Sprintf("simulator: time travel %.6f -> %.6f", s.now, at))
		}
		s.now = at
		s.handled++
		if arrival {
			arrivals = arrivals[1:]
			s.arrive(0)
		} else if _, ev := s.events.Pop(); !s.dispatch(&ev) {
			continue // queue bookkeeping: nothing happened at this instant
		}
		if at > tr.Horizon && s.stats.Completed+s.stats.FailedInvocations >= tr.Len() && s.allIdle() {
			break
		}
	}
	// Requests that never resolved by the safety horizon (only possible
	// under fault injection: work stranded behind a dead node or an exhausted
	// queue) count as failed so availability reflects them.
	s.stats.FailedInvocations += s.settle()
	return s.stats, nil
}

// MustRun is Run that panics on error, for callers that construct the
// trace themselves and know it is non-empty.
func (s *Simulator) MustRun(tr *trace.Trace) *RunStats {
	st, err := s.Run(tr)
	if err != nil {
		panic(err)
	}
	return st
}

func (s *Simulator) allIdle() bool {
	for _, fs := range s.fnList {
		if fs.queue.Len() > 0 {
			return false
		}
		for _, c := range fs.containers {
			if c.state == cBusy || c.state == cInitializing {
				return false
			}
		}
	}
	return true
}
