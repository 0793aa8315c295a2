package simulator

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"smiless/internal/apps"
	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/eventq"
	"smiless/internal/faults"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/placement"
	"smiless/internal/trace"
	"smiless/internal/tracing"
	"smiless/internal/units"
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

// container states.
const (
	cInitializing = iota
	cIdle
	cBusy
	cDead
)

type container struct {
	id        int
	fn        *fnState
	cfg       hardware.Config
	state     int
	initStart units.Duration
	warmAt    units.Duration
	batchSeq  int // validates in-flight timeout/hedge/failure events
	// Keep-alive: idleAt is the deadline of the last armIdleTimer and
	// idleTicket its same-instant rank; idleArmed drops when a batch starts.
	// At most one queue entry per container is live — generation timerGen,
	// due at timerAt (+Inf: none) — and it re-pushes itself when the deadline
	// has moved later by the time it fires.
	idleAt     units.Duration
	idleTicket uint64
	idleArmed  bool
	timerAt    units.Duration
	timerGen   int
	node       int
	// assigned waits to run when init completes, batch is executing; at most
	// one of them is non-empty, and they pass one backing array back and
	// forth (startBatch builds the batch in assigned's, onExecDone hands it
	// back), so a warm container dispatches without allocating.
	assigned  []*nodeInv
	batch     []*nodeInv
	prewarmed bool // launched by a pre-warm, not by a waiting request
}

// latWindow is the per-function ring of recent execution durations backing
// ExecLatencyQuantile (hedging thresholds).
const latWindow = 64

type fnState struct {
	id        dag.NodeID
	spec      *apps.FunctionSpec
	directive Directive
	// Topology, fixed in New: position in graph order, predecessor count and
	// successors, so the event path never asks the dag.Graph.
	idx   int
	npred int
	succs []*fnState
	// containers holds the live instances in id order: the first match of a
	// scan is the lowest id, and its length is the live count.
	containers []*container
	queue      eventq.FIFO[*nodeInv]
	inits      int

	// Resilience bookkeeping: recent execution durations (ring buffer)
	// and failure/success counts for breaker-driving drivers.
	execLat   []float64
	latPos    int
	initFails int
	execFails int
	successes int
}

// recordLatency appends one execution duration to the ring.
func (f *fnState) recordLatency(d float64) {
	if len(f.execLat) < latWindow {
		f.execLat = append(f.execLat, d)
		return
	}
	f.execLat[f.latPos] = d
	f.latPos = (f.latPos + 1) % latWindow
}

// liveCount returns the number of live containers (terminate removes dead
// ones from the list).
func (f *fnState) liveCount() int { return len(f.containers) }

type appInv struct {
	id        int
	arrival   units.Duration
	prog      []fnProgress // by function index
	remaining int
	failed    bool // a member exhausted its retries; the request is lost
}

// fnProgress is one function's progress within a request.
type fnProgress struct {
	pending int32 // unfinished predecessors
	done    bool  // a member (or its hedge or failover twin) has completed
}

type nodeInv struct {
	inv     *appInv
	fs      *fnState
	readyAt units.Duration

	// Resilience state: how many times this member has failed (crash,
	// timeout or eviction), whether a hedge twin has been launched for it,
	// and whether this member IS the hedge twin.
	attempts int
	hedged   bool
	isHedge  bool

	// span is the member's trace span when a recorder is attached (nil
	// otherwise; all NodeSpan methods are nil-safe).
	span *tracing.NodeSpan
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

// Config parameterizes a simulation run.
type Config struct {
	App     *apps.Application
	Cluster hardware.ClusterSpec
	Pricing hardware.Pricing
	// Placement selects the node-placement policy (default PlaceFirstFit).
	Placement PlacementPolicy
	// GossipInterval is the health-detector tick period in seconds
	// (default 0.25). SuspectAfter and DownAfter are how long a node must
	// miss heartbeats before it is suspected (default 2×GossipInterval)
	// and declared down with its in-flight work failed over (default
	// 2×SuspectAfter). Only consulted when Faults carries NodeFaults.
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
	// straggler inflation and node outages. Nil (or a plan with all rates
	// zero and no outages) leaves every code path identical to a fault-free
	// run — the injector draws from its own RNG stream, so enabling it
	// never perturbs the ground-truth timing samples.
	Faults *faults.Plan
}

// injector is the fault source the simulator consults. It is satisfied by
// *faults.Injector; in-package tests install scripted fakes.
type injector interface {
	InitOutcome(fn string) (bool, float64)
	ExecOutcome(fn string) (bool, float64)
	StragglerFactor(fn string) float64
	Jitter() float64
}

// Simulator runs one (application, driver, trace) evaluation.
type Simulator struct {
	cfg    Config
	driver Driver
	rng    *rand.Rand
	// prng is the placement RNG: only PlaceP2C draws from it, so the
	// ground-truth timing stream (rng) is identical whichever placement
	// policy runs.
	prng    *rand.Rand
	cluster *clusterState

	// now and horizon are typed simulation time; the float64 driver-facing
	// API (Now, OnWindow) converts at the boundary.
	now    units.Duration
	events eventq.Queue[event]
	// handled counts every arrival, window tick and queue event processed.
	handled int

	// fns resolves the driver-facing ids; fnList is the same set in graph
	// order and sources the entry functions. conts holds every live
	// container in id order, so float accumulation over it is reproducible.
	fns           map[dag.NodeID]*fnState
	fnList        []*fnState
	sources       []*fnState
	conts         []*container
	nextCont      int
	nextInv       int
	pendingLaunch []*container // waiting for cluster capacity

	arrivalsThisWindow int
	counts             []int // per-window arrival history
	arrivalTimes       []float64

	stats   *RunStats
	horizon units.Duration

	// inj is non-nil only when Config.Faults enables injection; every
	// fault code path is gated on it so fault-free runs are bit-compatible
	// with builds that predate the subsystem.
	inj injector

	// rec is the optional span recorder (internal/tracing). Like inj, every
	// emission is gated on it being non-nil and the recorder only observes,
	// so traced and untraced runs are bit-compatible.
	rec *tracing.Recorder
}

// ConfigError reports an invalid Config field passed to New.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("simulator: invalid config: %s %s", e.Field, e.Reason)
}

// ErrEmptyTrace is returned by Run when the trace carries no arrivals.
var ErrEmptyTrace = errors.New("simulator: empty trace")

// New prepares a simulator for the given run configuration and driver. It
// returns a *ConfigError when the configuration is structurally invalid
// (nil driver, missing application, negative SLA or window); zero SLA and
// window still take their documented defaults.
func New(cfg Config, driver Driver) (*Simulator, error) {
	if driver == nil {
		return nil, &ConfigError{Field: "driver", Reason: "must not be nil"}
	}
	if cfg.App == nil || cfg.App.Graph == nil || cfg.App.Graph.Len() == 0 {
		return nil, &ConfigError{Field: "App", Reason: "must have a non-empty graph"}
	}
	if cfg.SLA < 0 {
		return nil, &ConfigError{Field: "SLA", Reason: "must not be negative"}
	}
	if cfg.Window < 0 {
		return nil, &ConfigError{Field: "Window", Reason: "must not be negative"}
	}
	if cfg.Window <= 0 {
		cfg.Window = 1
	}
	if cfg.SLA <= 0 {
		cfg.SLA = 2
	}
	if cfg.Cluster.Nodes == nil {
		cfg.Cluster = hardware.DefaultCluster()
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
		for _, o := range cfg.Faults.Outages {
			if o.Node < 0 || o.Node >= len(cfg.Cluster.Nodes) {
				return nil, &ConfigError{Field: "Faults.Outages", Reason: fmt.Sprintf("node %d out of range", o.Node)}
			}
		}
		for _, nf := range cfg.Faults.NodeFaults {
			if nf.Node < 0 || nf.Node >= len(cfg.Cluster.Nodes) {
				return nil, &ConfigError{Field: "Faults.NodeFaults", Reason: fmt.Sprintf("node %d out of range", nf.Node)}
			}
			if nf.Kind == faults.NodePartition && nf.End <= nf.Start {
				return nil, &ConfigError{Field: "Faults.NodeFaults", Reason: fmt.Sprintf("partition of node %d must have End > Start", nf.Node)}
			}
		}
	}
	if cfg.PriceTrace != nil {
		for _, w := range cfg.PriceTrace.Preemptions {
			if w.Node < 0 || w.Node >= len(cfg.Cluster.Nodes) {
				return nil, &ConfigError{Field: "PriceTrace.Preemptions", Reason: fmt.Sprintf("node %d out of range", w.Node)}
			}
			if w.End <= w.Start {
				return nil, &ConfigError{Field: "PriceTrace.Preemptions", Reason: fmt.Sprintf("window on node %d must have End > Start", w.Node)}
			}
		}
	}
	s := &Simulator{
		cfg:     cfg,
		driver:  driver,
		rng:     mathx.NewRand(cfg.Seed),
		prng:    mathx.NewRand(cfg.Seed ^ 0x9e3779b9),
		cluster: newClusterState(cfg.Cluster),
		fns:     make(map[dag.NodeID]*fnState),
		stats:   newRunStats(cfg.SLA),
	}
	g := cfg.App.Graph
	for i, id := range g.Nodes() {
		fs := &fnState{
			id:    id,
			spec:  cfg.App.Spec(id),
			idx:   i,
			npred: len(g.Predecessors(id)),
			directive: Directive{
				Config: hardware.Config{Kind: hardware.CPU, Cores: 1},
				Policy: coldstart.KeepAlive,
				Batch:  1, Instances: 1, KeepAlive: 60,
			},
		}
		s.fns[id] = fs
		s.fnList = append(s.fnList, fs)
	}
	for _, fs := range s.fnList {
		for _, succ := range g.Successors(fs.id) {
			fs.succs = append(fs.succs, s.fns[succ])
		}
	}
	for _, src := range g.Sources() {
		s.sources = append(s.sources, s.fns[src])
	}
	// Guard against the typed-nil interface trap: only assign when the
	// injector is actually enabled.
	if in := faults.NewInjector(cfg.Faults); in != nil {
		s.inj = in
	}
	return s, nil
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

// --- Driver-facing API -------------------------------------------------

// Now returns the current simulation time in seconds.
func (s *Simulator) Now() float64 { return s.now.Seconds() }

// App returns the application under test.
func (s *Simulator) App() *apps.Application { return s.cfg.App }

// SLA returns the run's SLA bound.
func (s *Simulator) SLA() float64 { return s.cfg.SLA }

// Window returns the decision-window length.
func (s *Simulator) Window() float64 { return s.cfg.Window }

// SetDirective installs the directive for one function and re-dispatches
// any queued work under the new policy (e.g. a burst rescale must be able
// to launch instances for a backlog that accumulated under the old caps).
func (s *Simulator) SetDirective(id dag.NodeID, d Directive) {
	fs := s.fn(id)
	fs.directive = d.normalized()
	if fs.queue.Len() > 0 {
		s.pump(fs)
	}
}

// GetDirective returns the current directive for one function.
func (s *Simulator) GetDirective(id dag.NodeID) Directive { return s.fn(id).directive }

// fn resolves a function id; a driver addressing a function outside the
// application graph is a programming error.
func (s *Simulator) fn(id dag.NodeID) *fnState {
	fs, ok := s.fns[id]
	if !ok {
		panic(fmt.Sprintf("simulator: unknown function %q", id))
	}
	return fs
}

// CountsHistory returns completed per-window arrival counts so far, as a
// read-only view under the ControlPlane history contract.
func (s *Simulator) CountsHistory() []int {
	return s.counts[:len(s.counts):len(s.counts)]
}

// ArrivalTimes returns all application arrival timestamps observed so far,
// as a read-only view under the ControlPlane history contract.
func (s *Simulator) ArrivalTimes() []float64 {
	return s.arrivalTimes[:len(s.arrivalTimes):len(s.arrivalTimes)]
}

// QueueLen returns the number of ready-but-undispatched invocations of a
// function, letting drivers detect backlog.
func (s *Simulator) QueueLen(id dag.NodeID) int { return s.fn(id).queue.Len() }

// LiveInstances returns the number of live containers for a function.
func (s *Simulator) LiveInstances(id dag.NodeID) int { return s.fn(id).liveCount() }

// EnsureConfigInstance launches one instance of the function's current
// directive configuration unless one is already live (idle, busy or
// initializing). Drivers call it after a re-plan changes a function's
// flavor: the replacement warms in the background while the previous
// generation keeps serving, making the transition hitless.
func (s *Simulator) EnsureConfigInstance(id dag.NodeID) {
	fs := s.fn(id)
	for _, c := range fs.containers {
		if c.cfg == fs.directive.Config {
			return
		}
	}
	s.launch(fs, fs.directive.Config, true)
}

// EnsureInstances launches instances of the function's current directive
// config until n are live (bounded by the directive's Instances cap). Used
// by drivers that pre-scale ahead of a predicted burst.
func (s *Simulator) EnsureInstances(id dag.NodeID, n int) {
	fs := s.fn(id)
	if n > fs.directive.Instances {
		n = fs.directive.Instances
	}
	for fs.liveCount() < n {
		s.launch(fs, fs.directive.Config, true)
	}
}

// HasWarmMatching reports whether an idle or busy instance of the
// function's current directive configuration exists.
func (s *Simulator) HasWarmMatching(id dag.NodeID) bool {
	fs := s.fn(id)
	for _, c := range fs.containers {
		if (c.state == cIdle || c.state == cBusy) && c.cfg == fs.directive.Config {
			return true
		}
	}
	return false
}

// RetireMismatched terminates idle instances whose configuration no longer
// matches the directive, keeping at least MinWarm live instances. Drivers
// call it after a re-plan once a matching instance is warm, so fleets do
// not pay for two generations of configuration at once.
func (s *Simulator) RetireMismatched(id dag.NodeID) {
	fs := s.fn(id)
	for _, c := range slices.Clone(fs.containers) { // terminate edits the list
		if c.state == cIdle && c.cfg != fs.directive.Config &&
			fs.liveCount() > fs.directive.MinWarm+1 {
			s.terminate(c)
		}
	}
}

// FunctionCost returns the cost attributable to one function so far:
// terminated containers' billed cost plus live containers' accrual.
func (s *Simulator) FunctionCost(id dag.NodeID) float64 {
	fs := s.fn(id)
	// Accrual is summed in container-id order: float addition is not
	// associative, and this value feeds driver decisions.
	total := s.stats.CostPerFn[string(id)]
	for _, c := range fs.containers {
		_, cost := s.billedLife(c)
		total += cost
	}
	return total
}

// Stats exposes the run statistics accumulated so far. Cost totals reflect
// terminated containers only; add AccruedCost for live instances.
func (s *Simulator) Stats() *RunStats { return s.stats }

// AttachRecorder installs a span recorder for the run. Call before Run;
// attaching mid-run would leave earlier requests untraced. A nil recorder
// detaches tracing.
func (s *Simulator) AttachRecorder(r *tracing.Recorder) { s.rec = r }

// TraceRecorder returns the attached span recorder, or nil when the run is
// untraced. Drivers use it to emit decision-window instants.
func (s *Simulator) TraceRecorder() *tracing.Recorder { return s.rec }

// FaultsEnabled reports whether fault injection is active for this run.
// Drivers gate their resilience machinery (retry directives, hedging,
// circuit breakers) on it so fault-free runs stay bit-compatible.
func (s *Simulator) FaultsEnabled() bool { return s.inj != nil }

// ExecLatencyQuantile returns the p-th percentile (0–100) of the
// function's recent observed execution durations, or 0 with no samples
// yet. Drivers use it to place hedging thresholds.
func (s *Simulator) ExecLatencyQuantile(id dag.NodeID, p float64) float64 {
	fs := s.fn(id)
	return mathx.Percentile(fs.execLat, p)
}

// FnResilience returns the function's cumulative init failures, execution
// failures (crashes and timeouts; node evictions are excluded — they say
// nothing about the flavor) and successful batches — the raw feed for a
// driver's per-function circuit breaker.
func (s *Simulator) FnResilience(id dag.NodeID) (initFails, execFails, successes int) {
	fs := s.fn(id)
	return fs.initFails, fs.execFails, fs.successes
}

// AccruedCost returns the cost accrued by still-live containers (billed
// from their initialization start to now).
func (s *Simulator) AccruedCost() float64 {
	total := 0.0
	for _, c := range s.conts {
		_, cost := s.billedLife(c)
		total += cost
	}
	return total
}

// SchedulePrewarm asks for a warm instance of fn at time at: initialization
// is scheduled to start at max(now, at − PrewarmLead) unless a live
// instance already exists or will be warm in time.
func (s *Simulator) SchedulePrewarm(id dag.NodeID, at float64) {
	fs := s.fn(id)
	start := coldstart.PrewarmStart(s.now.Seconds(), at, fs.directive.PrewarmLead)
	s.schedule(units.Seconds(start), event{kind: evPrewarm, fs: fs})
}

// --- Run loop ----------------------------------------------------------

func (s *Simulator) schedule(at units.Duration, e event) { s.events.Push(at.Seconds(), e) }

// Run replays the trace through the simulator and returns the collected
// statistics. A nil or empty trace returns ErrEmptyTrace.
//
// Three sources feed the loop: a cursor over the trace's arrivals, the
// decision-window tick (every Window, up to the first tick past
// trace.Horizon) and the event queue. The earliest goes first; on one
// timestamp an arrival precedes a window tick, which precedes queued events
// in eventq order.
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
	s.horizon = units.Seconds(tr.Horizon + 600)
	if s.cfg.Faults != nil {
		for _, o := range s.cfg.Faults.Outages {
			if o.End <= o.Start {
				continue
			}
			s.schedule(units.Seconds(o.Start), event{kind: evNodeDown, node: o.Node})
			s.schedule(units.Seconds(o.End), event{kind: evNodeUp, node: o.Node})
		}
		for _, nf := range s.cfg.Faults.NodeFaults {
			switch nf.Kind {
			case faults.NodeCrash:
				s.schedule(units.Seconds(nf.Start), event{kind: evNodeCrash, node: nf.Node})
				if nf.End > nf.Start {
					s.schedule(units.Seconds(nf.End), event{kind: evNodeRestart, node: nf.Node})
				}
			case faults.NodePartition:
				s.schedule(units.Seconds(nf.Start), event{kind: evPartitionStart, node: nf.Node})
				s.schedule(units.Seconds(nf.End), event{kind: evPartitionEnd, node: nf.Node})
			}
		}
		// The detector only runs when a fault plan can starve heartbeats;
		// plans without node faults stay byte-identical to earlier builds.
		if len(s.cfg.Faults.NodeFaults) > 0 {
			s.schedule(units.Seconds(s.cfg.GossipInterval), event{kind: evGossip})
		}
	}
	if s.cfg.PriceTrace != nil {
		for _, w := range s.cfg.PriceTrace.Preemptions {
			s.schedule(units.Seconds(w.Start), event{kind: evPreempt, node: w.Node})
			s.schedule(units.Seconds(w.End), event{kind: evPreemptEnd, node: w.Node})
		}
	}
	s.driver.Setup(s)

	const (
		srcNone = iota
		srcQueue
		srcWindow
		srcArrival
	)
	tick, lastTick := s.cfg.Window, tr.Horizon+s.cfg.Window
	for {
		at, src := math.Inf(1), srcNone
		if qat, ok := s.events.NextAt(); ok {
			at, src = qat, srcQueue
		}
		if tick <= lastTick && tick <= at {
			at, src = tick, srcWindow
		}
		if len(arrivals) > 0 && arrivals[0] <= at {
			at, src = arrivals[0], srcArrival
		}
		if src == srcNone || units.Seconds(at) > s.horizon {
			break
		}
		if units.Seconds(at) < s.now-1e-9 {
			panic(fmt.Sprintf("simulator: time travel %.6f -> %.6f", s.now.Seconds(), at))
		}
		s.now = units.Seconds(at)
		s.handled++
		switch src {
		case srcArrival:
			arrivals = arrivals[1:]
			s.onArrival()
		case srcWindow:
			tick += s.cfg.Window
			s.onWindow()
		case srcQueue:
			_, e := s.events.Pop()
			if !s.dispatch(e) {
				continue // queue bookkeeping: nothing happened at this instant
			}
		}
		if at > tr.Horizon && s.stats.Completed+s.stats.FailedInvocations >= tr.Len() && s.allIdle() {
			break
		}
	}
	s.finish()
	return s.stats, nil
}

// onWindow closes one decision window: the arrival count is logged and the
// driver re-decides.
func (s *Simulator) onWindow() {
	s.counts = append(s.counts, s.arrivalsThisWindow)
	s.arrivalsThisWindow = 0
	guard := s.guardHistory()
	s.driver.OnWindow(s, s.now.Seconds())
	guard.check(s)
	s.samplePods()
}

// dispatch routes one due event to its handler. Node-side events (init and
// exec completions or crashes) from a crashed node are dropped — the work
// died with the process — and from a partitioned node they are held on the
// node and replayed in order when the partition heals. It reports false for
// a keep-alive entry that found its deadline voided or moved.
func (s *Simulator) dispatch(e event) bool {
	if c := e.c; e.nodeSide() && c.state != cDead && c.node >= 0 {
		n := s.cluster.nodes[c.node]
		if !n.alive {
			return true
		}
		if n.partitioned {
			n.held = append(n.held, e)
			return true
		}
	}
	switch e.kind {
	case evInitDone:
		s.onInitDone(e.c)
	case evExecDone:
		s.onExecDone(e.c)
	case evIdleTimeout:
		return s.onIdleTimeout(e.c, e.epoch)
	case evPrewarm:
		s.onPrewarm(e.fs)
	case evInitFail:
		s.onInitFail(e.c)
	case evExecFail:
		s.onExecFail(e.c, e.epoch)
	case evExecTimeout:
		s.onExecTimeout(e.c, e.epoch)
	case evHedge:
		s.onHedge(e.c, e.epoch)
	case evRetry:
		s.onRetry(e.ni)
	case evNodeDown:
		s.onNodeDown(e.node)
	case evNodeUp:
		s.onNodeUp(e.node)
	case evNodeCrash:
		s.onNodeCrash(e.node)
	case evNodeRestart:
		s.onNodeRestart(e.node)
	case evPartitionStart:
		s.onPartitionStart(e.node)
	case evPartitionEnd:
		s.onPartitionEnd(e.node)
	case evGossip:
		s.onGossip()
	case evPreempt:
		s.onPreempt(e.node)
	case evPreemptEnd:
		s.onPreemptEnd(e.node)
	}
	return true
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

// finish terminates all containers and finalizes accounting. Containers
// are terminated in id order so floating-point cost accumulation is
// deterministic run to run.
func (s *Simulator) finish() {
	owed := s.stats.TotalCost + s.AccruedCost()
	for _, c := range slices.Clone(s.conts) { // terminate edits the list
		s.terminate(c)
	}
	s.checkConservation(owed) // smiless_invariants builds only
	// Requests that never resolved by the safety horizon (only possible
	// under fault injection: work stranded behind a dead node or an
	// exhausted queue) count as failed so availability reflects them.
	unresolved := s.nextInv - s.stats.Completed - s.stats.FailedInvocations
	invariant(unresolved >= 0, "%d requests arrived but %d resolved: some request resolved twice", s.nextInv, s.nextInv-unresolved)
	s.stats.FailedInvocations += unresolved
	// Settle down time for nodes the detector still holds down at the end.
	if s.cfg.Faults != nil && len(s.cfg.Faults.NodeFaults) > 0 {
		for _, n := range s.cluster.nodes {
			if n.health == nodeDown && n.detectorDown {
				s.stats.NodeDownSeconds += s.now.Seconds() - n.downSince
			}
		}
	}
}

// --- Event handlers ----------------------------------------------------

func (s *Simulator) onArrival() {
	s.arrivalsThisWindow++
	s.arrivalTimes = append(s.arrivalTimes, s.now.Seconds())
	inv := &appInv{
		id:        s.nextInv,
		arrival:   s.now,
		prog:      make([]fnProgress, len(s.fnList)),
		remaining: len(s.fnList),
	}
	s.nextInv++
	if s.rec != nil {
		s.rec.BeginRequest(inv.id, s.now.Seconds())
	}
	for i, fs := range s.fnList {
		inv.prog[i].pending = int32(fs.npred)
	}
	// Reactive pre-warming for functions that request it.
	for _, fs := range s.fnList {
		if fs.directive.PrewarmOnArrival && fs.npred > 0 {
			s.SchedulePrewarm(fs.id, s.now.Seconds()+fs.directive.PathOffset)
		}
	}
	// Entry function becomes ready immediately.
	for _, src := range s.sources {
		s.enqueue(&nodeInv{inv: inv, fs: src, readyAt: s.now})
	}
}

// enqueue adds a ready node invocation and attempts dispatch.
func (s *Simulator) enqueue(ni *nodeInv) {
	if s.rec != nil && ni.span == nil {
		ni.span = s.rec.BeginNode(ni.inv.id, string(ni.fs.id), s.now.Seconds(), ni.isHedge)
	}
	fs := ni.fs
	fs.queue.Push(ni)
	s.pump(fs)
}

// pump dispatches queued invocations onto available containers, launching
// new instances when the directive allows.
func (s *Simulator) pump(fs *fnState) {
	for fs.queue.Len() > 0 {
		d := fs.directive
		// 1. An idle warm container.
		if c := s.pickIdle(fs); c != nil {
			s.startBatch(c, tracing.PhaseQueue)
			continue
		}
		// 2. Busy warm containers absorb small overlaps: joining the next
		// batch costs at most one inference cycle, which beats waiting out
		// a cold initialization on a fresh instance.
		// Containers on a node the detector holds down do not count: a
		// batch stuck behind a partition must not absorb the queue.
		busy := 0
		for _, c := range fs.containers {
			if c.state == cBusy && s.servable(c) {
				busy++
			}
		}
		if busy > 0 && fs.queue.Len() <= busy*d.Batch {
			return
		}
		// 3. An initializing container with spare assignment capacity.
		// Capacity-blocked launches (not placed on a node yet) do not
		// accept work: binding requests to a container that may never be
		// scheduled would strand them.
		if c := s.pickInitializing(fs); c != nil {
			assign(c, d.Batch-len(c.assigned))
			continue
		}
		// 4. Launch a new instance if under the cap. If the cluster is out
		// of capacity the launch queues unplaced and takes no work; the
		// requests stay in the function queue for whichever instance frees
		// up first.
		if fs.liveCount() < d.Instances {
			c := s.launch(fs, d.Config, false)
			if c.node < 0 {
				return
			}
			assign(c, d.Batch)
			continue
		}
		// 5. Saturated: wait for a container to free up.
		return
	}
}

// assign binds up to n queued invocations to an initializing container.
func assign(c *container, n int) {
	for ; n > 0 && c.fn.queue.Len() > 0; n-- {
		c.assigned = append(c.assigned, c.fn.queue.Pop())
	}
}

// servable reports whether the control plane will route new work to the
// container: its node must not be detected down (or suspect). Unplaced
// launches are handled separately by pickInitializing.
func (s *Simulator) servable(c *container) bool {
	return c.node < 0 || s.cluster.nodes[c.node].placeable()
}

// pickIdle returns the lowest-id idle container the control plane will
// route to.
func (s *Simulator) pickIdle(fs *fnState) *container {
	for _, c := range fs.containers {
		if c.state == cIdle && s.servable(c) {
			return c
		}
	}
	return nil
}

func (s *Simulator) pickInitializing(fs *fnState) *container {
	for _, c := range fs.containers {
		if c.state == cInitializing && c.node >= 0 && s.servable(c) &&
			len(c.assigned) < fs.directive.Batch {
			return c
		}
	}
	return nil
}

// launch starts a new container (cold start). When the cluster lacks
// capacity the launch queues until resources free.
func (s *Simulator) launch(fs *fnState, cfg hardware.Config, prewarmed bool) *container {
	c := &container{
		id: s.nextCont, fn: fs, cfg: cfg, state: cInitializing,
		initStart: s.now, prewarmed: prewarmed, node: -1,
		timerAt: units.Seconds(math.Inf(1)),
	}
	s.nextCont++
	fs.containers = append(fs.containers, c) // ids only grow: both lists stay ordered
	s.conts = append(s.conts, c)
	fs.inits++
	s.stats.Inits++
	node, ok := s.placeLaunch(fs.id, cfg)
	if !ok {
		s.pendingLaunch = append(s.pendingLaunch, c)
		s.stats.CapacityBlocked++
		return c
	}
	c.node = node
	s.beginInit(c)
	return c
}

// placeLaunch reserves a node for one launch under the configured placement
// policy, counting overflow forwards under PlaceP2C.
func (s *Simulator) placeLaunch(id dag.NodeID, cfg hardware.Config) (int, bool) {
	switch s.cfg.Placement {
	case PlaceP2C:
		node, forwarded, ok := s.cluster.allocateP2C(cfg, HomeNode(string(id), s.cluster.len()), s.prng)
		if ok && forwarded {
			s.stats.Forwards++
		}
		return node, ok
	case PlacePack:
		return s.placeAffinity(id, cfg, true)
	case PlaceSpread:
		return s.placeAffinity(id, cfg, false)
	}
	return s.cluster.allocate(cfg)
}

// placeAffinity scores every placeable node with capacity by the class
// pressure the launch would meet there, then packs (highest pressure wins:
// same-class work concentrates) or spreads (lowest pressure wins: the
// launch lands where it is interfered with least). Nodes are visited in
// index order and strict comparisons break ties to the lower index, so the
// choice is deterministic.
func (s *Simulator) placeAffinity(id dag.NodeID, cfg hardware.Config, pack bool) (int, bool) {
	class := placement.ClassOf(s.fns[id].spec.Field)
	best, bestScore := -1, 0.0
	for i, n := range s.cluster.nodes {
		if !n.placeable() || !n.fits(cfg) {
			continue
		}
		score := s.classPressure(i, class)
		if best < 0 || (pack && score > bestScore) || (!pack && score < bestScore) {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return -1, false
	}
	s.cluster.takeOn(best, cfg)
	return best, true
}

// classPressure sums the interference-weighted memory-bandwidth demand that
// node n's live containers exert on the given class. Without a configured
// interference model it degrades to the same-class resident demand, so the
// affinity policies still have a signal. Containers are visited in id order
// for reproducible float accumulation.
func (s *Simulator) classPressure(n int, class placement.Class) float64 {
	total := 0.0
	for _, c := range s.conts {
		if c.node != n {
			continue
		}
		rc := placement.ClassOf(c.fn.spec.Field)
		w := placement.DemandOf(c.cfg).MemBW
		if m := s.cfg.Interference; m != nil {
			total += m.Matrix.Coef(class, rc) * w
		} else if rc == class {
			total += w
		}
	}
	return total
}

// interferenceFactor returns the configured model's slowdown for container
// c against the other live containers on its node, visited in id order.
func (s *Simulator) interferenceFactor(c *container) float64 {
	var residents []placement.Resident
	for _, o := range s.conts {
		if o == c || o.node != c.node {
			continue
		}
		residents = append(residents, placement.Resident{
			Class: placement.ClassOf(o.fn.spec.Field),
			MemBW: placement.DemandOf(o.cfg).MemBW,
		})
	}
	return s.cfg.Interference.Slowdown(placement.ClassOf(c.fn.spec.Field), residents)
}

// beginInit samples the initialization duration for a placed container and
// schedules its completion — or, under fault injection, its crash partway
// through. The duration sample always comes from the ground-truth RNG so
// the fault-free stream is undisturbed.
func (s *Simulator) beginInit(c *container) {
	if s.rec != nil {
		s.rec.BeginInit(c.id, string(c.fn.id), c.cfg.String(), c.node, s.now.Seconds(), c.prewarmed)
	}
	dur := c.fn.spec.SampleInit(s.rng, c.cfg)
	if s.cfg.Interference != nil && c.node >= 0 {
		if f := s.interferenceFactor(c); f > 1 {
			s.stats.InterferedInits++
			s.stats.InterferenceSeconds += dur * (f - 1)
			dur *= f
		}
	}
	if s.inj != nil {
		if fail, frac := s.inj.InitOutcome(string(c.fn.id)); fail {
			s.schedule(s.now+units.Seconds(dur*frac), event{kind: evInitFail, c: c})
			return
		}
	}
	c.warmAt = s.now + units.Seconds(dur)
	s.schedule(c.warmAt, event{kind: evInitDone, c: c})
}

func (s *Simulator) onInitDone(c *container) {
	if c.state != cInitializing {
		return
	}
	c.state = cIdle
	s.stats.WarmStarts++
	fs := c.fn
	if s.rec != nil {
		s.rec.EndInit(c.id, s.now.Seconds(), len(c.assigned) > 0, false)
	}
	if len(c.assigned) > 0 {
		// Work waited for this initialization: the cold start was on the
		// request path.
		s.stats.InitGated++
		s.startBatch(c, tracing.PhaseColdInit)
		if c.state == cIdle {
			// Only reachable under fault injection: every assigned member
			// failed before the init completed, so the batch came up empty
			// and the instance idles like a pre-warm.
			s.armIdleTimer(c)
			s.pump(fs)
		}
		return
	}
	// Pre-warmed and nothing waiting: idle with keep-alive timer.
	s.armIdleTimer(c)
	s.pump(fs)
}

// onInitFail handles an injected crash during initialization: the partial
// init time is still billed (the provider charges for the attempt, Eq. 3),
// assigned work returns to the queue, and pump relaunches — the natural
// retry for a cold start.
func (s *Simulator) onInitFail(c *container) {
	if c.state != cInitializing {
		return
	}
	s.stats.InitFailures++
	c.fn.initFails++
	fs := c.fn
	s.terminate(c)
	s.pump(fs)
}

// startBatch moves assigned/queued work onto the container and runs it.
// Members whose request already failed (retries exhausted elsewhere in the
// DAG) are dropped rather than executed. cause classifies, for tracing, the
// wait each member just finished: a cold initialization the batch was gated
// on, a batch rotation on a busy instance, or plain queueing.
func (s *Simulator) startBatch(c *container, cause tracing.Phase) {
	fs := c.fn
	d := fs.directive
	batch := c.assigned[:0]
	for _, ni := range c.assigned {
		if !ni.inv.failed {
			batch = append(batch, ni)
		}
	}
	c.assigned = nil
	for len(batch) < d.Batch && fs.queue.Len() > 0 {
		if ni := fs.queue.Pop(); !ni.inv.failed {
			batch = append(batch, ni)
		}
	}
	if len(batch) == 0 {
		return
	}
	c.state = cBusy
	c.batch = batch
	c.idleArmed = false // the keep-alive deadline is void until re-armed
	c.batchSeq++        // validates timeout/hedge/crash events for this batch
	if s.rec != nil {
		now := s.now.Seconds()
		for _, ni := range batch {
			ni.span.Dispatch(now, cause, c.initStart.Seconds(), c.id,
				c.cfg.String(), d.Policy.String(), len(batch))
		}
		s.rec.BeginExec(c.id, string(fs.id), c.cfg.String(), c.node, now, len(batch))
	}
	dur := fs.spec.SampleInference(s.rng, c.cfg, len(batch))
	if s.cfg.GPUContention > 0 && c.cfg.Kind == hardware.GPU && c.node >= 0 {
		others := s.cluster.usedGPUOnNode(c.node) - c.cfg.GPUShare
		if others > 0 {
			dur *= 1 + s.cfg.GPUContention*float64(others)/100
		}
	}
	if s.cfg.Interference != nil && c.node >= 0 {
		if f := s.interferenceFactor(c); f > 1 {
			s.stats.InterferedBatches++
			s.stats.InterferenceSeconds += dur * (f - 1)
			dur *= f
		}
	}
	if s.inj != nil {
		if f := s.inj.StragglerFactor(string(fs.id)); f > 1 {
			dur *= f
			s.stats.Stragglers++
		}
	}
	fs.recordLatency(dur)
	s.stats.Executions++
	s.stats.BatchSum += len(batch)
	if s.inj != nil {
		if fail, frac := s.inj.ExecOutcome(string(fs.id)); fail {
			// The instance crashes partway through; the gateway's retry
			// policy decides each member's fate in onExecFail.
			s.schedule(s.now+units.Seconds(dur*frac), event{kind: evExecFail, c: c, epoch: c.batchSeq})
			return
		}
	}
	s.schedule(s.now+units.Seconds(dur), event{kind: evExecDone, c: c, epoch: c.batchSeq})
	if t := d.Retry.Timeout; t > 0 && dur > t {
		s.schedule(s.now+units.Seconds(t), event{kind: evExecTimeout, c: c, epoch: c.batchSeq})
	}
	if h := d.HedgeDelay; h > 0 && len(batch) == 1 && dur > h &&
		!batch[0].isHedge && !batch[0].hedged {
		s.schedule(s.now+units.Seconds(h), event{kind: evHedge, c: c, epoch: c.batchSeq})
	}
}

func (s *Simulator) onExecDone(c *container) {
	if c.state != cBusy {
		return
	}
	batch := c.batch
	c.batch = nil
	c.state = cIdle
	fs := c.fn
	if s.rec != nil {
		s.rec.EndExec(c.id, s.now.Seconds(), false)
	}

	// Complete each node invocation and release successors. A member whose
	// request already failed, or whose node a hedge twin finished first, is
	// discarded (first completion wins).
	counted := false
	for _, ni := range batch {
		inv := ni.inv
		if inv.failed || inv.prog[fs.idx].done {
			ni.span.Finish(s.now.Seconds(), false)
			continue
		}
		ni.span.Finish(s.now.Seconds(), true)
		if ni.isHedge {
			s.stats.HedgesWon++
		}
		if !counted {
			fs.successes++
			counted = true
		}
		inv.prog[fs.idx].done = true
		inv.remaining--
		invariant(inv.remaining >= 0, "request %d finished more members than its DAG has: remaining %d", inv.id, inv.remaining)
		for _, succ := range fs.succs {
			p := &inv.prog[succ.idx]
			p.pending--
			invariant(p.pending >= 0, "request %d released successor %s more times than it has predecessors", inv.id, succ.id)
			if p.pending == 0 {
				s.enqueue(&nodeInv{inv: inv, fs: succ, readyAt: s.now})
			}
		}
		if inv.remaining == 0 {
			s.completeInvocation(inv)
		}
	}

	// The batch is done with its backing array: the next one is built in it.
	clear(batch)
	c.assigned = batch[:0]
	// More queued work? Keep the instance busy.
	if fs.queue.Len() > 0 {
		s.startBatch(c, tracing.PhaseBatchWait)
		return
	}
	// Apply the cold-start policy.
	switch fs.directive.Policy {
	case coldstart.Prewarm, coldstart.NoMitigation:
		s.terminate(c)
	case coldstart.KeepAlive:
		s.armIdleTimer(c)
	case coldstart.AlwaysOn:
		// Stays resident; no timer.
	}
}

// --- Failure handling ---------------------------------------------------

// abortBatch terminates a container whose batch crashed, timed out or was
// evicted, then routes each in-flight member through the retry policy.
func (s *Simulator) abortBatch(c *container) {
	members := c.batch
	c.batch = nil
	fs := c.fn
	for _, ni := range members {
		ni.span.Fail(s.now.Seconds())
	}
	s.terminate(c)
	for _, ni := range members {
		s.retryMember(fs, ni)
	}
	s.pump(fs)
}

// onExecFail handles an injected crash mid-execution. The container dies
// (its billed life still charged) and each batch member is individually
// retried or failed.
func (s *Simulator) onExecFail(c *container, epoch int) {
	if c.state != cBusy || c.batchSeq != epoch {
		return
	}
	s.stats.ExecFailures++
	c.fn.execFails++
	s.abortBatch(c)
}

// onExecTimeout fires when a batch outlives the gateway's per-attempt
// timeout. The hung instance is terminated — re-dispatching onto it would
// just hang again — and the members retry elsewhere.
func (s *Simulator) onExecTimeout(c *container, epoch int) {
	if c.state != cBusy || c.batchSeq != epoch {
		return
	}
	s.stats.Timeouts++
	c.fn.execFails++
	s.abortBatch(c)
}

// retryMember routes one failed batch member through the function's retry
// policy: re-enqueue after backoff while attempts remain, otherwise the
// whole request fails. Hedge twins are never retried — the primary is
// still running.
func (s *Simulator) retryMember(fs *fnState, ni *nodeInv) {
	if ni.inv.failed || ni.isHedge || ni.inv.prog[fs.idx].done {
		return
	}
	ni.attempts++
	pol := fs.directive.Retry
	if !pol.Allow(ni.attempts) {
		s.failInvocation(ni.inv)
		return
	}
	s.stats.Retries++
	ni.hedged = false // a retried attempt may be hedged again
	var u float64
	if s.inj != nil {
		u = s.inj.Jitter()
	} else {
		u = s.rng.Float64()
	}
	delay := pol.Backoff(ni.attempts, u)
	if delay <= 0 {
		ni.readyAt = s.now
		s.enqueue(ni)
		return
	}
	ni.span.Backoff(s.now.Seconds(), s.now.Seconds()+delay)
	s.schedule(s.now+units.Seconds(delay), event{kind: evRetry, ni: ni})
}

// failInvocation marks a request permanently failed and purges its
// remaining members from every function queue so no further work is spent
// on it.
func (s *Simulator) failInvocation(inv *appInv) {
	if inv.failed {
		return
	}
	inv.failed = true
	s.stats.FailedInvocations++
	if s.rec != nil {
		s.rec.FailRequest(inv.id, s.now.Seconds())
	}
	for _, fs := range s.fnList {
		if fs.queue.Len() > 0 {
			fs.queue.Filter(func(ni *nodeInv) bool { return ni.inv != inv })
		}
	}
}

// onRetry re-enqueues a backed-off member once its delay elapses.
func (s *Simulator) onRetry(ni *nodeInv) {
	if ni.inv.failed || ni.inv.prog[ni.fs.idx].done {
		return
	}
	ni.readyAt = s.now
	s.enqueue(ni)
}

// onHedge duplicates a slow single-member execution onto a second warm
// instance. The first completion wins (onExecDone's done-map dedup); the
// loser's result is discarded.
func (s *Simulator) onHedge(c *container, epoch int) {
	if c.state != cBusy || c.batchSeq != epoch || len(c.batch) != 1 {
		return
	}
	primary := c.batch[0]
	if primary.inv.failed || primary.hedged || primary.isHedge || primary.inv.prog[c.fn.idx].done {
		return
	}
	h := s.pickIdle(c.fn)
	if h == nil {
		return // no spare warm instance: hedging never launches cold starts
	}
	primary.hedged = true
	twin := &nodeInv{inv: primary.inv, fs: c.fn, readyAt: s.now, isHedge: true}
	if s.rec != nil {
		twin.span = s.rec.BeginNode(primary.inv.id, string(c.fn.id), s.now.Seconds(), true)
	}
	s.stats.HedgesLaunched++
	h.assigned = append(h.assigned, twin)
	s.startBatch(h, tracing.PhaseQueue)
}

// onNodeDown begins a legacy Outage: detection is instantaneous, no new
// allocations land on the node and every container on it is evicted, its
// in-flight work retried elsewhere (charging retry attempts, as before).
func (s *Simulator) onNodeDown(n int) {
	if n < 0 || n >= s.cluster.len() || s.cluster.isDown(n) {
		return
	}
	s.cluster.setDown(n, true)
	s.stats.NodeDownEvents++
	s.evictNode(n, s.retryMember)
	s.pumpAll()
}

// onNodeUp ends a legacy Outage: the node accepts allocations again and any
// capacity-blocked launches are placed.
func (s *Simulator) onNodeUp(n int) {
	if n < 0 || n >= s.cluster.len() || !s.cluster.isDown(n) {
		return
	}
	s.cluster.setDown(n, false)
	s.drainPendingLaunches()
	s.pumpAll()
}

// onPreempt withdraws a spot node: the provider reclaims the capacity, the
// node's containers are evicted, and their in-flight work fails over to
// live peers without charging retry attempts — the reclaim notice is the
// infrastructure's failure, not the attempt's.
func (s *Simulator) onPreempt(n int) {
	if n < 0 || n >= s.cluster.len() || s.cluster.isDown(n) {
		return
	}
	s.cluster.setDown(n, true)
	s.stats.Preemptions++
	before := s.stats.EvictedContainers
	s.evictNode(n, s.failoverMember)
	s.stats.PreemptedContainers += s.stats.EvictedContainers - before
	s.nodeInstant("preempt", n)
	s.pumpAll()
}

// onPreemptEnd returns reclaimed spot capacity to the pool: the node accepts
// allocations again and capacity-blocked launches place.
func (s *Simulator) onPreemptEnd(n int) {
	if n < 0 || n >= s.cluster.len() || !s.cluster.isDown(n) {
		return
	}
	s.cluster.setDown(n, false)
	s.nodeInstant("preempt_end", n)
	s.drainPendingLaunches()
	s.pumpAll()
}

// evictNode terminates every container on node n (id order for
// determinism) and routes each in-flight batch member through route
// (retryMember for legacy outages, failoverMember for detected crashes).
// Assigned-but-unstarted members requeue via terminate.
func (s *Simulator) evictNode(n int, route func(*fnState, *nodeInv)) {
	for _, c := range slices.Clone(s.conts) { // terminate and route edit the list
		if c.node != n || c.state == cDead {
			continue
		}
		s.stats.EvictedContainers++
		members := c.batch
		c.batch = nil
		fs := c.fn
		for _, ni := range members {
			ni.span.Fail(s.now.Seconds())
		}
		s.terminate(c)
		for _, ni := range members {
			route(fs, ni)
		}
	}
}

// pumpAll re-dispatches queued work in graph order for determinism.
func (s *Simulator) pumpAll() {
	for _, fs := range s.fnList {
		if fs.queue.Len() > 0 {
			s.pump(fs)
		}
	}
}

// nodeInstant records a node-lifecycle marker when tracing is attached.
func (s *Simulator) nodeInstant(name string, n int) {
	if s.rec != nil {
		s.rec.AddInstant(s.now.Seconds(), name, []tracing.KV{{Key: "node", Val: fmt.Sprint(n)}})
	}
}

// onNodeCrash kills a node's process — ground truth only. Its containers
// stay registered and the control plane keeps routing to them; their
// node-side completions are dropped until the gossip detector marks the
// node down and fails the in-flight work over.
func (s *Simulator) onNodeCrash(n int) {
	node := s.cluster.nodes[n]
	if !node.alive {
		return
	}
	node.alive = false
	s.nodeInstant("node_crash", n)
}

// onNodeRestart brings a crashed node back, empty. Containers the control
// plane still believes live on it died with the process: they are evicted
// and their in-flight work fails over — whether or not the detector had
// noticed the crash, a fast flap must not lose requests. Health recovery
// (allocations resuming) waits for the next gossip tick to observe the
// resumed heartbeats.
func (s *Simulator) onNodeRestart(n int) {
	node := s.cluster.nodes[n]
	if node.alive {
		return
	}
	s.evictNode(n, s.failoverMember)
	node.alive = true
	s.nodeInstant("node_restart", n)
	s.pumpAll()
}

// onPartitionStart makes a node unreachable: its containers keep running
// but their completions are held until the partition heals.
func (s *Simulator) onPartitionStart(n int) {
	node := s.cluster.nodes[n]
	if node.partitioned || !node.alive {
		return
	}
	node.partitioned = true
	s.nodeInstant("partition_start", n)
}

// onPartitionEnd heals a partition: held node-side events replay in their
// original order at heal time, racing any failed-over twins through the
// idempotent first-completion-wins dedup — no request completes twice.
func (s *Simulator) onPartitionEnd(n int) {
	node := s.cluster.nodes[n]
	if !node.partitioned {
		return
	}
	node.partitioned = false
	held := node.held
	node.held = nil
	s.nodeInstant("partition_heal", n)
	for _, he := range held {
		s.dispatch(he)
	}
}

// onGossip is one deterministic failure-detector tick: reachable nodes
// heartbeat, unreachable ones age toward suspect and down, and nodes whose
// heartbeats resumed recover. Nodes are visited in index order so detector
// side effects (evictions, failovers, pumps) are reproducible.
func (s *Simulator) onGossip() {
	now := s.now.Seconds()
	for i, n := range s.cluster.nodes {
		if n.alive && !n.partitioned {
			n.lastBeat = now
			// Only reverse the detector's own verdicts: a node a legacy
			// Outage holds down stays down until its scheduled evNodeUp.
			if n.health == nodeSuspect || (n.health == nodeDown && n.detectorDown) {
				s.recoverNode(i)
			}
			continue
		}
		gap := now - n.lastBeat
		if n.health == nodeUp && gap >= s.cfg.SuspectAfter {
			n.health = nodeSuspect
			s.nodeInstant("node_suspect", i)
		}
		if n.health != nodeDown && gap >= s.cfg.DownAfter {
			s.markNodeDown(i)
		}
	}
	if s.now < s.horizon {
		s.schedule(s.now+units.Seconds(s.cfg.GossipInterval), event{kind: evGossip})
	}
}

// recoverNode returns a node to service once its heartbeats resume: down
// time settles into NodeDownSeconds, capacity-blocked launches place, and
// queued work re-pumps.
func (s *Simulator) recoverNode(i int) {
	n := s.cluster.nodes[i]
	if n.health == nodeDown {
		s.stats.NodeDownSeconds += s.now.Seconds() - n.downSince
	}
	n.health = nodeUp
	n.detectorDown = false
	s.nodeInstant("node_recovered", i)
	s.drainPendingLaunches()
	s.pumpAll()
}

// markNodeDown commits the detector's verdict: the node leaves the
// placement pool and every in-flight request bound to it fails over to a
// live peer. A crashed node's containers are evicted (they died with the
// process); a partitioned node's keep running — their eventual completions
// race the failover twins, and the done-map dedup keeps exactly one.
func (s *Simulator) markNodeDown(i int) {
	n := s.cluster.nodes[i]
	n.health = nodeDown
	n.detectorDown = true
	n.downSince = s.now.Seconds()
	s.stats.NodeDownEvents++
	s.nodeInstant("node_down", i)
	if !n.alive {
		s.evictNode(i, s.failoverMember)
	} else if n.partitioned {
		s.twinNodeInflight(i)
	}
	s.pumpAll()
}

// twinNodeInflight duplicates every in-flight member on node i onto a live
// peer. The originals keep executing behind the partition; twin and
// original race, first completion wins.
func (s *Simulator) twinNodeInflight(i int) {
	for _, c := range slices.Clone(s.conts) { // failover launches edit the list
		if c.node != i {
			continue
		}
		members := append(append([]*nodeInv(nil), c.batch...), c.assigned...)
		for _, ni := range members {
			if ni.inv.failed || ni.inv.prog[ni.fs.idx].done || ni.isHedge {
				continue
			}
			twin := &nodeInv{inv: ni.inv, fs: ni.fs, readyAt: s.now}
			s.failoverMember(c.fn, twin)
		}
	}
}

// failoverMember re-forwards one in-flight member to a live peer. Unlike
// retryMember it charges no retry attempt and applies no backoff: the
// failure is the infrastructure's, not the attempt's, and the detection
// delay already cost latency. The deadline/retry budgets still bound total
// work — a member that keeps landing on dying nodes keeps its attempt
// count, so its next genuine failure routes through the retry policy.
func (s *Simulator) failoverMember(fs *fnState, ni *nodeInv) {
	if ni.inv.failed || ni.inv.prog[fs.idx].done || ni.isHedge {
		return
	}
	s.stats.Failovers++
	ni.hedged = false
	ni.readyAt = s.now
	s.enqueue(ni)
}

// armIdleTimer sets the container's keep-alive deadline from the directive
// in force now. Under AlwaysOn nothing is armed — and nothing is disarmed: a
// deadline that survived since the last batch stays live.
func (s *Simulator) armIdleTimer(c *container) {
	d := c.fn.directive
	if d.Policy == coldstart.AlwaysOn {
		return
	}
	ka := d.KeepAlive
	if ka <= 0 {
		// Grace period for drivers that leave KeepAlive unset: long
		// enough that a pre-warmed instance arriving slightly early is
		// not reaped before its request.
		ka = 10 * s.cfg.Window
	}
	c.idleAt, c.idleTicket, c.idleArmed = s.now+units.Seconds(ka), s.events.Ticket(), true
	if c.idleAt < c.timerAt {
		// No entry is queued, or a directive cut KeepAlive under the one
		// that is: queue one for this deadline, superseding it.
		s.pushIdleTimer(c)
	}
}

func (s *Simulator) pushIdleTimer(c *container) {
	c.timerGen++
	c.timerAt = c.idleAt
	s.events.PushTicket(c.idleAt.Seconds(), c.idleTicket, event{kind: evIdleTimeout, c: c, epoch: c.timerGen})
}

// onIdleTimeout handles the container's queue entry coming due and reports
// whether its keep-alive deadline really expired.
func (s *Simulator) onIdleTimeout(c *container, gen int) bool {
	if gen != c.timerGen || c.state == cDead {
		return false // superseded by an entry for an earlier deadline
	}
	c.timerAt = units.Seconds(math.Inf(1))
	if !c.idleArmed || c.state != cIdle {
		return false // a batch ran since the deadline was armed
	}
	if c.idleAt > s.now {
		s.pushIdleTimer(c) // re-armed for later while this entry waited
		return false
	}
	if c.fn.liveCount() <= c.fn.directive.MinWarm {
		s.armIdleTimer(c) // floor reached: stay resident, check again later
	} else {
		s.terminate(c)
	}
	return true
}

func (s *Simulator) terminate(c *container) {
	if c.state == cDead {
		return
	}
	if s.rec != nil {
		s.rec.ContainerGone(c.id, s.now.Seconds())
	}
	// Requeue any assigned-but-unstarted work.
	if len(c.assigned) > 0 {
		c.fn.queue.PushFront(c.assigned)
		c.assigned = nil
	}
	c.state = cDead
	if c.node >= 0 {
		s.cluster.release(c.node, c.cfg)
		s.drainPendingLaunches()
	} else {
		// Never placed: remove from the pending queue.
		for i, p := range s.pendingLaunch {
			if p.id == c.id {
				s.pendingLaunch = append(s.pendingLaunch[:i], s.pendingLaunch[i+1:]...)
				break
			}
		}
	}
	life, cost := s.billedLife(c)
	s.stats.addCost(string(c.fn.id), c.cfg, life, cost)
	c.fn.containers = dropContainer(c.fn.containers, c)
	s.conts = dropContainer(s.conts, c)
}

// dropContainer removes c from an id-ordered container list, keeping order.
func dropContainer(cs []*container, c *container) []*container {
	i := slices.Index(cs, c)
	return slices.Delete(cs, i, i+1)
}

// billedLife returns a container's billed lifetime in seconds and its
// dollar cost from initialization start to now: static pricing by default,
// or the spot trace's multiplier-weighted integral when one is configured.
// FlatTrace(1) integrates to exactly the raw lifetime, so its bills are
// bit-identical to static pricing.
func (s *Simulator) billedLife(c *container) (life, cost float64) {
	life = (s.now - c.initStart).Seconds()
	unit := s.cfg.Pricing.UnitCost(c.cfg)
	if pt := s.cfg.PriceTrace; pt != nil {
		return life, unit * pt.Integrate(c.initStart.Seconds(), s.now.Seconds())
	}
	return life, life * unit
}

// drainPendingLaunches starts queued launches that now fit.
func (s *Simulator) drainPendingLaunches() {
	remaining := s.pendingLaunch[:0]
	for _, c := range s.pendingLaunch {
		if c.state != cInitializing {
			continue
		}
		node, ok := s.placeLaunch(c.fn.id, c.cfg)
		if !ok {
			remaining = append(remaining, c)
			continue
		}
		c.node = node
		s.beginInit(c)
	}
	s.pendingLaunch = remaining
	// Placed launches can now accept queued work once warm; nothing to do
	// here — onInitDone pumps.
}

func (s *Simulator) completeInvocation(inv *appInv) {
	invariant(inv.remaining == 0 && !inv.failed, "request %d completed with remaining=%d failed=%t: done-map dedup broke", inv.id, inv.remaining, inv.failed)
	e2e := (s.now - inv.arrival).Seconds()
	s.stats.Completed++
	var bd tracing.Breakdown
	if s.rec != nil {
		bd = s.rec.CompleteRequest(inv.id, s.now.Seconds())
	}
	if inv.arrival.Seconds() < s.cfg.StatsAfter {
		return // measurement warm-up: not part of the reported statistics
	}
	s.stats.E2E = append(s.stats.E2E, e2e)
	s.stats.E2EArrival = append(s.stats.E2EArrival, inv.arrival.Seconds())
	if e2e > s.cfg.SLA {
		s.stats.Violations++
		if s.rec != nil && bd.Blamed != "" {
			if s.stats.ViolationByFn == nil {
				s.stats.ViolationByFn = make(map[string]int)
			}
			s.stats.ViolationByFn[bd.Blamed]++
		}
	}
	if s.rec != nil {
		s.stats.QueueOnPathSeconds += bd.Phases[tracing.PhaseQueue] + bd.Phases[tracing.PhaseBatchWait]
		s.stats.InitOnPathSeconds += bd.Phases[tracing.PhaseColdInit]
		s.stats.ExecOnPathSeconds += bd.Phases[tracing.PhaseExec]
		s.stats.RetryOnPathSeconds += bd.Phases[tracing.PhaseFailedAttempt] + bd.Phases[tracing.PhaseBackoff]
	}
}

func (s *Simulator) onPrewarm(fs *fnState) {
	// An idle or initializing instance already satisfies the pre-warm
	// goal. A busy instance does too unless the policy terminates it
	// after its current batch (Prewarm/NoMitigation), in which case it
	// will not be available for the next request.
	terminating := fs.directive.Policy == coldstart.Prewarm || fs.directive.Policy == coldstart.NoMitigation
	for _, c := range fs.containers {
		switch c.state {
		case cIdle, cInitializing:
			return
		case cBusy:
			if !terminating {
				return
			}
		}
	}
	if fs.liveCount() >= fs.directive.Instances {
		return
	}
	s.launch(fs, fs.directive.Config, true)
}

// samplePods records pod-count and backend-usage series each window.
func (s *Simulator) samplePods() {
	cpuPods, gpuPods := 0, 0
	for _, c := range s.conts {
		if c.cfg.Kind == hardware.CPU {
			cpuPods++
		} else {
			gpuPods++
		}
	}
	s.stats.PodSamples = append(s.stats.PodSamples, PodSample{
		Time: s.now.Seconds(), CPU: cpuPods, GPU: gpuPods,
		Arrivals: s.lastWindowCount(),
	})
}

func (s *Simulator) lastWindowCount() int {
	if len(s.counts) == 0 {
		return 0
	}
	return s.counts[len(s.counts)-1]
}
