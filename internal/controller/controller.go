// Package controller wires SMIless together as a simulator.Driver: the
// Online Predictor (invocation counts + inter-arrival times, §IV-B) feeds
// the Strategy Optimizer (§V-C), whose plan the Container Manager realizes
// through per-function directives; the Auto-scaler (§V-D) takes over for
// burst windows. The ablations of Fig. 13 (SMIless-No-DAG, SMIless-Homo)
// are switches on the same controller.
package controller

import (
	"math"
	"slices"
	"strconv"

	"smiless/internal/autoscaler"
	"smiless/internal/coldstart"
	"smiless/internal/core"
	"smiless/internal/dag"
	"smiless/internal/faults"
	"smiless/internal/forecast"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/perfmodel"
	"smiless/internal/placement"
	"smiless/internal/simulator"
	"smiless/internal/tracing"
)

// Options configures the SMIless controller.
type Options struct {
	// DisableDAG reproduces SMIless-No-DAG: every function is pre-warmed
	// simultaneously at the predicted arrival time, ignoring DAG position.
	DisableDAG bool
	// Forecaster names the forecaster family (internal/forecast registry)
	// serving both predictor roles, trained once enough history
	// accumulates. Empty trains none: a lightweight moving-window estimator
	// is used throughout (useful to keep unit tests fast). Callers that need
	// typed errors on unknown names validate before constructing the
	// controller (experiments does); New itself falls back to
	// forecast.Default.
	Forecaster string
	// NewForecaster, when non-nil, overrides the registry lookup with an
	// explicit constructor — the injection point for external families.
	NewForecaster forecast.Constructor
	// TrainAfter is the number of observed arrivals before training.
	TrainAfter int
	// RetrainEvery re-fits the forecasters after this many further
	// arrivals; detected prediction drift forces an earlier refit.
	RetrainEvery int
	// SLAMargin shrinks the SLA the optimizer plans against so realized
	// latency noise does not push boundary plans over the real SLA.
	SLAMargin float64
	// Seed drives predictor initialization.
	Seed int64
	// Interference, when non-nil, makes the Strategy Optimizer plan against
	// the expected co-location slowdown: each re-plan scores candidate
	// configs with their inference times inflated by the model's expected
	// per-class factor over the live fleet (placement.Model.PlanFactor).
	// Nil keeps every plan byte-identical to the interference-blind search.
	Interference *placement.Model
	// PlanNodes is the cluster size the planning-time interference factor
	// assumes the class population is spread over (default 8). Only
	// consulted when Interference is non-nil.
	PlanNodes int
}

// DefaultOptions returns the full SMIless configuration.
func DefaultOptions(seed int64) Options {
	return Options{Forecaster: forecast.Default, TrainAfter: 200, RetrainEvery: 2000, SLAMargin: 0.7, Seed: seed}
}

// SMIless is the paper's system as a simulator driver.
type SMIless struct {
	Catalog  *hardware.Catalog
	Profiles map[dag.NodeID]*perfmodel.Profile
	SLA      float64
	Opts     Options

	opt    *core.Optimizer
	scaler *autoscaler.Scaler

	// Current plan and the ITs it was computed for.
	plan       *coldstart.Plan
	planIT     float64
	planITMean float64
	offsets    map[dag.NodeID]float64
	planInfer  map[dag.NodeID]float64

	// events is the window-event reduction of the substrate's arrival log,
	// extended at the top of every OnWindow; everything below that reasons
	// about inter-arrival times reads its tail.
	events windowEvents

	// Online Predictor: one forecaster instance per role, consumed strictly
	// through the forecast.Forecaster interface and wrapped with the
	// quality/drift harness; nil without a forecaster family. fedIAT/fedCnt
	// track how much of the live series has been streamed into each wrapper.
	itFc, cntFc    *forecast.Online
	forecastName   string
	fedIAT, fedCnt int
	trainedAt      int
	fcActive       bool
	// fitIATs/fitCounts back the refit series, reused across refits
	// (Forecaster.Fit does not retain its input).
	fitIATs, fitCounts []forecast.Observation

	// Burst mode bookkeeping.
	bursting bool
	// idleMode is set while the application is in a quiet phase with the
	// warm floor released.
	idleMode bool
	// itMean is the latest point estimate of the inter-arrival time.
	itMean float64
	// planPath is the critical-path latency of the current plan.
	planPath float64
	// itLow/itHigh are conservative quantiles of recent inter-arrival
	// times: itLow drives the Case I/II policy split (an early arrival
	// must still find a warm container), itHigh sizes keep-alives.
	itLow, itHigh float64

	// Resilience layer (active only when the run injects faults; see
	// resilience.go). resilient mirrors sim.FaultsEnabled() so fault-free
	// runs never touch these paths.
	resilient bool
	// breakers holds one circuit breaker per function; when a breaker is
	// open the function serves on the known-good fallback flavor.
	breakers map[dag.NodeID]*faults.Breaker
	fallback map[dag.NodeID]bool
	// last* remember cumulative FnResilience counters so each window feeds
	// the breaker only its delta.
	lastInitF, lastExecF, lastSucc map[dag.NodeID]int
	fallbackCfg                    hardware.Config
	// degraded is set while serving the synthetic conservative plan that
	// replaces a failed optimizer run.
	degraded      bool
	degradedSince int // windows spent degraded, for periodic re-optimization
}

// New builds the SMIless controller. Windowed re-optimization runs on one
// long-lived Optimizer, so each re-plan reuses its workspace and its Result
// storage and allocates nothing. No evaluation cache is attached: the plans
// are byte-identical either way, and on the dense control workload it hit
// 2.4 % of lookups while costing more than it saved.
func New(cat *hardware.Catalog, profiles map[dag.NodeID]*perfmodel.Profile, sla float64, opts Options) *SMIless {
	opt := core.New(cat)
	opt.Cache = nil
	s := &SMIless{
		Catalog:  cat,
		Profiles: profiles,
		SLA:      sla,
		Opts:     opts,
		opt:      opt,
		scaler:   autoscaler.New(cat),
	}
	ctor := opts.NewForecaster
	if ctor == nil && opts.Forecaster != "" {
		c, err := forecast.Lookup(opts.Forecaster)
		if err != nil {
			// Unknown name: New cannot return an error, so degrade to the
			// default family. Config surfaces that want a typed error
			// validate the name before reaching here (experiments does).
			c, _ = forecast.Lookup(forecast.Default)
		}
		ctor = c
	}
	if ctor != nil {
		// Both roles share the base seed so the default family reproduces
		// the historical in-controller predictor initialization bit for bit.
		itFc := ctor(forecast.Config{Seed: opts.Seed, Role: forecast.RoleInterArrival, Budget: forecast.BudgetOnline})
		cntFc := ctor(forecast.Config{Seed: opts.Seed, Role: forecast.RoleCount, Budget: forecast.BudgetOnline})
		s.itFc = forecast.NewOnline(itFc, forecastHorizon)
		s.cntFc = forecast.NewOnline(cntFc, forecastHorizon)
		s.forecastName = itFc.Name()
	}
	return s
}

// forecastHorizon is how many windows ahead forecasts are scored by the
// prediction-quality harness.
const forecastHorizon = 4

// Name implements simulator.Driver.
func (s *SMIless) Name() string {
	switch {
	case s.Opts.DisableDAG:
		return "SMIless-No-DAG"
	default:
		return "SMIless"
	}
}

// reoptimize recomputes the plan for the given conservative policy IT and
// expected mean IT, then installs directives. An optimizer failure with no
// plan yet installed falls back to the degraded conservative plan; with a
// plan in place the last good plan keeps serving (graceful degradation).
func (s *SMIless) reoptimize(sim simulator.ControlPlane, it float64) {
	margin := s.Opts.SLAMargin
	if margin <= 0 || margin > 1 {
		margin = 0.7
	}
	planSLA := s.SLA * margin
	if s.resilient {
		// Reserve backoff headroom for retried attempts out of the
		// planning budget so a once-retried request can still meet the SLA.
		planSLA = coldstart.RetryAdjustedSLA(planSLA, s.nominalRetryPolicy().SlackBudget(), 0.4)
	}
	req := core.Request{
		Graph:    sim.App().Graph,
		Profiles: s.Profiles,
		SLA:      planSLA,
		IT:       it,
		ITMean:   s.itMean,
		Batch:    1,
	}
	if s.Opts.Interference != nil {
		req.Interference = s.planInterference(sim)
	}
	res, err := s.opt.Optimize(req)
	if err != nil {
		s.traceReoptimize(sim, it, core.Result{}, false)
		if s.plan == nil {
			s.degrade(sim, it)
		}
		return
	}
	s.traceReoptimize(sim, it, res, true)
	s.degraded = false
	// The plan is the Optimizer's storage: it stays valid until the next
	// successful Optimize, which replaces s.plan right here, and a failed one
	// leaves it untouched, so the last good plan keeps serving.
	s.plan = res.Plan
	s.planIT = it
	s.planITMean = s.itMean
	s.computePlanGeometry(sim)
	s.installPlan(sim, it)
}

// planInterference estimates the per-function interference factor the
// optimizer should plan under: the live class population (instances ×
// per-instance memory-bandwidth demand, read from the current directives)
// spread uniformly over PlanNodes, fed through the model's expected-factor
// formula. Only called when Opts.Interference is non-nil, so the default
// controller never touches this path.
func (s *SMIless) planInterference(sim simulator.ControlPlane) map[dag.NodeID]float64 {
	nodes := s.Opts.PlanNodes
	if nodes <= 0 {
		nodes = 8
	}
	app := sim.App()
	pop := map[placement.Class]float64{}
	for _, id := range functions(sim) {
		live := sim.LiveInstances(id)
		if live == 0 {
			continue
		}
		class := placement.ClassOf(app.Spec(id).Field)
		pop[class] += float64(live) * placement.DemandOf(sim.GetDirective(id).Config).MemBW
	}
	out := make(map[dag.NodeID]float64, app.Graph.Len())
	for _, id := range functions(sim) {
		out[id] = s.Opts.Interference.PlanFactor(placement.ClassOf(app.Spec(id).Field), pop, nodes)
	}
	return out
}

// traceReoptimize records a "reoptimize" instant on the attached span
// recorder, if any. Only deterministic search statistics are exported —
// never PathStats.Nanos, which is wall-clock and would perturb replay.
func (s *SMIless) traceReoptimize(sim simulator.ControlPlane, it float64, res core.Result, ok bool) {
	rec := sim.TraceRecorder()
	if rec == nil {
		return
	}
	args := []tracing.KV{
		{Key: "ok", Val: strconv.FormatBool(ok)},
		{Key: "plan_it_s", Val: strconv.FormatFloat(it, 'g', 6, 64)},
	}
	if ok {
		args = append(args,
			tracing.KV{Key: "feasible", Val: strconv.FormatBool(res.Feasible)},
			tracing.KV{Key: "nodes_explored", Val: strconv.Itoa(res.NodesExplored)},
			tracing.KV{Key: "paths", Val: strconv.Itoa(len(res.Paths))},
		)
	}
	rec.AddInstant(sim.Now(), "reoptimize", args)
}

// computePlanGeometry derives critical-path offsets, per-function inference
// estimates and the plan path latency from the current plan. The two maps
// are made on the first plan and overwritten in place on every later one.
func (s *SMIless) computePlanGeometry(sim simulator.ControlPlane) {
	l := sim.App().Graph.Layout()
	if s.offsets == nil {
		s.offsets = make(map[dag.NodeID]float64, len(l.Topo))
		s.planInfer = make(map[dag.NodeID]float64, len(l.Topo))
	}
	// Critical-path offsets under the plan.
	for i, id := range l.Topo {
		best := 0.0
		for _, pi := range l.Preds[i] {
			p := l.Topo[pi]
			end := s.offsets[p] + s.planInfer[p]
			if end > best {
				best = end
			}
		}
		s.offsets[id] = best
		s.planInfer[id] = s.Profiles[id].InferenceTime(s.plan.Configs[id], 1)
	}
	if s.Opts.DisableDAG {
		for id := range s.offsets {
			s.offsets[id] = 0
		}
	}
	// Plan path latency: how much SLA slack remains for batching overlaps.
	s.planPath = 0
	for id, off := range s.offsets {
		if end := off + s.planInfer[id]; end > s.planPath {
			s.planPath = end
		}
	}
}

// installPlan writes the optimizer plan into simulator directives. When a
// function's flavor changed, a replacement instance starts warming in the
// background immediately (the previous generation keeps serving until the
// retire pass removes it), so re-plans are hitless.
func (s *SMIless) installPlan(sim simulator.ControlPlane, it float64) {
	for _, id := range functions(sim) {
		cfg := s.plan.Configs[id]
		d := s.plan.Decisions[id]
		if s.resilient && s.fallback[id] {
			// Open breaker: the planned flavor keeps failing, so serve on
			// the known-good CPU fallback with keep-alive until half-open
			// probing clears it.
			cfg = s.fallbackCfg
			d = coldstart.Decision{Policy: coldstart.KeepAlive}
		}
		changed := sim.GetDirective(id).Config != cfg
		// Keep-alive horizon: cover the observed gap distribution so warm
		// instances survive ordinary lulls; genuinely long idle phases are
		// handled by idle-mode below, which releases the fleet wholesale.
		ka := s.itHigh
		if ka <= 0 || math.IsInf(ka, 1) {
			ka = math.Max(30, it*1.2)
		}
		if ka < 2*sim.Window() {
			ka = 2 * sim.Window()
		}
		dir := simulator.Directive{
			Config:      cfg,
			Policy:      d.Policy,
			KeepAlive:   ka,
			PrewarmLead: s.Profiles[id].InitTime(cfg),
			PathOffset:  s.offsets[id],
			// Reactive fallback: if a prediction is missed and the DAG is
			// cold, the request itself triggers right-pre-warming down the
			// DAG so downstream initializations overlap upstream work.
			PrewarmOnArrival: true,
			// Overlapping requests may join the busy instance's next batch
			// instead of forcing a cold scale-out — but only up to the batch
			// size whose inflated inference still fits the plan's remaining
			// SLA slack. Sustained overlap is the Auto-scaler's job.
			Batch:     s.slackBatch(id, sim),
			Instances: 1,
			// While traffic is dense enough that instances rarely idle
			// out anyway, pin one instance resident: the marginal cost is
			// tiny and it removes the rare gap-beyond-keep-alive cold DAG.
			MinWarm: minWarmFor(d.Policy, it, ka),
		}
		if s.resilient {
			dir.Retry = s.retryPolicyFor(id)
			dir.HedgeDelay = s.hedgeDelayFor(sim, id)
		}
		sim.SetDirective(id, dir)
		if changed && !s.idleMode && d.Policy == coldstart.KeepAlive {
			sim.EnsureConfigInstance(id)
		}
	}
}

// minWarmFor returns 1 when the mean inter-arrival time is within the
// keep-alive horizon (the instance would rarely expire anyway), else 0.
func minWarmFor(p coldstart.Policy, it, ka float64) int {
	if p == coldstart.KeepAlive && it <= ka {
		return 1
	}
	return 0
}

// slackBatch returns the largest batch size for a function whose inflated
// inference time still keeps the plan's critical path within the SLA.
func (s *SMIless) slackBatch(id dag.NodeID, sim simulator.ControlPlane) int {
	margin := s.Opts.SLAMargin
	if margin <= 0 || margin > 1 {
		margin = 0.7
	}
	slack := s.SLA*margin - s.planPath
	if slack < 0 {
		slack = 0
	}
	prof := s.Profiles[id]
	cfg := s.plan.Configs[id]
	base := prof.InferenceTime(cfg, 1)
	b := 1
	for b < 4 && prof.InferenceTime(cfg, b+1) <= base+slack {
		b++
	}
	return b
}

// Setup implements simulator.Driver.
func (s *SMIless) Setup(sim simulator.ControlPlane) {
	if sim.FaultsEnabled() {
		s.enableResilience(sim)
	}
	s.reoptimize(sim, 10) // neutral prior until arrivals are observed
	if s.plan == nil {
		// Optimizer failed before any plan existed: serve degraded rather
		// than not at all.
		s.degrade(sim, 10)
	}
	// Deployment warm-up: have the whole DAG warm for the first request.
	for _, id := range functions(sim) {
		sim.SchedulePrewarm(id, sim.Now())
	}
}

// predictIT returns the predicted inter-arrival time.
func (s *SMIless) predictIT() float64 {
	// Moving-window estimate as baseline/fallback.
	tail := s.events.tail(30)
	if len(tail) < 2 {
		return 10
	}
	mw := (tail[len(tail)-1] - tail[0]) / float64(len(tail)-1)
	if mw <= 0 || math.IsNaN(mw) || math.IsInf(mw, 0) {
		// Degenerate history (coincident window-first arrivals): fall back
		// to the neutral prior rather than planning against garbage.
		mw = 10
	}
	if !s.fcActive {
		return mw
	}
	v := s.itFc.Forecast()[0]
	if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		// Predictor failure degrades to the moving-window estimate.
		return mw
	}
	return v
}

// predictCount returns the predicted invocation count for the next window:
// the forecaster's upper-bound forecast joined (max) with a recent-window
// heuristic, so neither a model miss nor a cold model underestimates.
func (s *SMIless) predictCount(sim simulator.ControlPlane) int {
	counts := sim.CountsHistory()
	if len(counts) == 0 {
		return 0
	}
	fc := 0
	if s.fcActive {
		fc = int(s.cntFc.Forecast()[0])
	}
	// Recent-window maximum plus linear ramp extrapolation: a conservative
	// upper bound in the spirit of the bucket classifier's upper-bound rule.
	best := fc
	start := len(counts) - 8
	if start < 0 {
		start = 0
	}
	for _, c := range counts[start:] {
		if c > best {
			best = c
		}
	}
	if n := len(counts); n >= 2 {
		last, prev := counts[n-1], counts[n-2]
		// Only extrapolate genuine ramps: a single isolated arrival
		// (0 -> 1) is steady sparse traffic, not a burst front.
		if last >= 2 && last > prev {
			if extrap := last + (last - prev); extrap > best {
				best = extrap
			}
		}
	}
	return best
}

// observeForecasts streams the live series' new tail into the forecaster
// wrappers: each Observe scores the in-flight forecasts registered on
// earlier windows (the walk-forward quality harness) and feeds the drift
// detector before updating the model's own history.
func (s *SMIless) observeForecasts(sim simulator.ControlPlane) {
	if s.itFc == nil {
		return
	}
	counts := sim.CountsHistory()
	w := sim.Window()
	for ; s.fedIAT < s.events.gaps(); s.fedIAT++ {
		s.itFc.Observe(s.events.observation(s.fedIAT, counts, w))
	}
	for ; s.fedCnt < len(counts); s.fedCnt++ {
		s.cntFc.Observe(forecast.Observation{Value: float64(counts[s.fedCnt])})
	}
}

// Refits see a bounded tail of each series. Every registered family predicts
// from a bounded tail, so trimming cannot change the forecasts.
const (
	fitGaps    = 1500
	fitWindows = 3000
)

// maybeTrain trains or refreshes the forecasters: on the configured
// arrival-count schedule, or early when either role's one-step errors
// drifted (the Page-Hinkley detector inside the Online wrappers).
func (s *SMIless) maybeTrain(sim simulator.ControlPlane) {
	if s.itFc == nil {
		return
	}
	n := s.events.seen
	if n < s.Opts.TrainAfter {
		return
	}
	if s.fcActive && n-s.trainedAt < s.Opts.RetrainEvery &&
		!s.itFc.Drifted() && !s.cntFc.Drifted() {
		return
	}
	gaps := s.events.gaps()
	if gaps < 64 {
		return
	}
	counts := sim.CountsHistory()
	w := sim.Window()
	first := gaps - fitGaps
	if first < 0 {
		first = 0
	}
	s.fitIATs = slices.Grow(s.fitIATs[:0], gaps-first)
	for i := first; i < gaps; i++ {
		// Covariates are re-read from counts as it stands now, not as it
		// stood when the gap was fed (see windowEvents.observation).
		s.fitIATs = append(s.fitIATs, s.events.observation(i, counts, w))
	}
	// A failed fit (e.g. ErrShortSeries) keeps the previous model serving.
	_ = s.itFc.Refit(s.fitIATs)

	if len(counts) > fitWindows {
		counts = counts[len(counts)-fitWindows:]
	}
	s.fitCounts = slices.Grow(s.fitCounts[:0], len(counts))
	for _, c := range counts {
		s.fitCounts = append(s.fitCounts, forecast.Observation{Value: float64(c)})
	}
	if err := s.cntFc.Refit(s.fitCounts); err == nil {
		s.fcActive = true
		s.trainedAt = n
	}
}

// publishForecastStats exports the quality harness into RunStats so
// experiment tables and /metrics report prediction quality per forecaster.
func (s *SMIless) publishForecastStats(sim simulator.ControlPlane) {
	if s.itFc == nil {
		return
	}
	st := sim.Stats()
	st.ForecastName = s.forecastName
	s.itFc.ReportInto(&st.ForecastIT)
	s.cntFc.ReportInto(&st.ForecastCount)
}

// quantileGaps is how many recent inter-event gaps updateQuantiles ranks
// (windowEvents keeps them sorted).
const quantileGaps = 60

// updateQuantiles refreshes the conservative inter-arrival quantiles from
// the recent gap history, falling back to fractions of the point estimate
// when history is thin.
func (s *SMIless) updateQuantiles(sim simulator.ControlPlane, it float64) {
	if gaps := s.events.recentGaps(); len(gaps) < 8 {
		s.itLow = it * 0.3
		s.itHigh = it * 3
	} else {
		s.itLow = mathx.PercentileSorted(gaps, 10)
		s.itHigh = mathx.PercentileSorted(gaps, 99) * 1.3
	}
	if s.itHigh < 2*sim.Window() {
		s.itHigh = 2 * sim.Window()
	}
	if s.itHigh > 180 {
		s.itHigh = 180
	}
}

// OnWindow implements simulator.Driver.
func (s *SMIless) OnWindow(sim simulator.ControlPlane, now float64) {
	arrivals := sim.ArrivalTimes()
	s.events.extend(arrivals, sim.Window())
	s.observeForecasts(sim)
	s.maybeTrain(sim)

	it := s.predictIT()
	s.itMean = it
	s.updateQuantiles(sim, it)

	if s.resilient {
		s.updateBreakers(sim, now)
	}
	if s.degraded {
		sim.Stats().DegradedWindows++
		s.degradedSince++
		// Periodically retry the optimizer; success clears degraded mode.
		if s.degradedSince%10 == 0 {
			s.reoptimize(sim, s.itLow/2)
		}
	}

	// Idle-period detection: when no request has arrived for well beyond
	// the predicted inter-arrival horizon, the application has gone quiet
	// (the Azure traces spend much of their life idle). Release the warm
	// floor and let instances expire; the first request of the next busy
	// phase pays one reactive right-pre-warmed start.
	if len(arrivals) > 0 {
		idleFor := now - arrivals[len(arrivals)-1]
		threshold := math.Max(30*it, 120)
		if idleFor > threshold && !s.idleMode {
			s.idleMode = true
			for _, id := range functions(sim) {
				d := sim.GetDirective(id)
				d.MinWarm = 0
				// Grace for valley-crossing pre-warms: the predicted
				// busy-phase onset carries uncertainty proportional to the
				// gap itself.
				d.KeepAlive = math.Max(2*sim.Window(), 0.25*it)
				sim.SetDirective(id, d)
			}
		} else if idleFor <= threshold && s.idleMode {
			s.idleMode = false
			s.installPlan(sim, it)
		}
	}
	// Re-optimize when the predicted regime moved materially. The
	// optimizer receives half the conservative low quantile: a function
	// only earns the unload-and-pre-warm policy with 2x headroom over even
	// an early-side arrival (robust Case I/II split).
	target := s.itLow / 2
	if s.plan == nil || target < s.planIT/3 || target > s.planIT*3 ||
		s.itMean < s.planITMean/3 || s.itMean > s.planITMean*3 {
		s.reoptimize(sim, target)
	}

	g := predictCountWithBacklog(s, sim)
	backlog := 0
	for _, id := range functions(sim) {
		backlog += sim.QueueLen(id)
	}
	if g >= 2 {
		// Burst: raise capacity. Small bursts batch/scale the already-warm
		// plan configuration — switching flavors mid-burst costs a cold
		// start that outlives the burst. Only large bursts (g >= 8) engage
		// the Eq. (7)/(8) solver, which may pick a batching backend.
		s.bursting = true
		// Per-stage latency budget of the reactive (backlogged) solver.
		var reactiveBudget float64
		if backlog > 0 {
			reactiveBudget = s.SLA * 0.8 / float64(sim.App().Graph.LongestPathLen())
		}
		for _, id := range functions(sim) {
			prof := s.Profiles[id]
			is := s.planInfer[id]
			if is <= 0 {
				is = s.SLA / float64(sim.App().Graph.Len())
			}
			gFn := g + sim.QueueLen(id)
			d := sim.GetDirective(id)
			if gFn >= 8 {
				var plan autoscaler.Plan
				if backlog > 0 {
					var err error
					plan, err = s.scaler.DecideReactive(prof, gFn, sim.Window(), reactiveBudget+prof.InitTime(s.plan.Configs[id]))
					if err != nil {
						plan, _ = s.scaler.DecideOrFallback(prof, gFn, sim.Window(), is)
					}
				} else {
					plan, _ = s.scaler.DecideOrFallback(prof, gFn, sim.Window(), is)
				}
				d.Config = plan.Config
				d.Batch = plan.Batch
				d.Instances = plan.Instances + 1
			} else {
				d.Config = s.plan.Configs[id]
				// A plan config with a long initialization (GPU shares)
				// cannot be scaled out in time: spares of such flavors
				// would arrive after the burst. Pick an init-aware spare
				// flavor instead; warm plan-config instances keep serving.
				if prof.InitTime(d.Config) > s.SLA {
					if p, err := s.scaler.DecideReactive(prof, gFn, sim.Window(), s.SLA); err == nil {
						d.Config = p.Config
					}
				}
				b := s.slackBatch(id, sim)
				if b > gFn {
					b = gFn
				}
				d.Batch = b
				d.Instances = (gFn + b - 1) / b
			}
			if d.Instances < 2 {
				d.Instances = 2
			}
			sim.SetDirective(id, d)
			if backlog > 0 {
				sim.EnsureInstances(id, d.Instances)
				sim.SchedulePrewarm(id, now)
			}
		}
	} else if s.bursting {
		// Burst over: shrink capacity targets back to the plan's without
		// touching configs, policies or keep-alives (no lifecycle churn —
		// surplus instances simply idle out).
		s.bursting = false
		for _, id := range functions(sim) {
			d := sim.GetDirective(id)
			d.Config = s.plan.Configs[id]
			d.Batch = s.slackBatch(id, sim)
			d.Instances = 1
			sim.SetDirective(id, d)
		}
	}

	// Retire previous-generation fleets: once a warm instance of the
	// current plan configuration exists, idle instances of older configs
	// are pure cost.
	if !s.bursting {
		for _, id := range functions(sim) {
			if sim.HasWarmMatching(id) {
				sim.RetireMismatched(id)
			}
		}
	}

	// Proactive pre-warming: when the next predicted arrival falls within
	// the coming window, make sure each pre-warm function is warm in time.
	if ev := s.events.times; len(ev) > 0 && !s.bursting {
		last := ev[len(ev)-1]
		// Two pre-warm horizons: the early quantile covers busy-phase
		// arrivals ahead of prediction; the point prediction (LSTM or
		// moving window) covers the long gap across an idle valley — the
		// paper's adaptive pre-warming for the next predicted invocation.
		targets, n := [2]float64{last + s.itLow}, 1
		if it > 2*s.itLow {
			targets[1], n = last+0.85*it, 2
		}
		for _, next := range targets[:n] {
			if next < now || next > now+2*sim.Window()+it*0.1 {
				continue
			}
			for _, id := range functions(sim) {
				p := sim.GetDirective(id).Policy
				if p == coldstart.Prewarm || s.idleMode {
					sim.SchedulePrewarm(id, next+s.offsets[id])
				}
			}
		}
	}

	s.publishForecastStats(sim)

	if rec := sim.TraceRecorder(); rec != nil {
		rec.AddInstant(now, "window", []tracing.KV{
			{Key: "it_s", Val: strconv.FormatFloat(it, 'g', 6, 64)},
			{Key: "bursting", Val: strconv.FormatBool(s.bursting)},
			{Key: "degraded", Val: strconv.FormatBool(s.degraded)},
			{Key: "idle", Val: strconv.FormatBool(s.idleMode)},
		})
	}
}

// functions returns the application's functions in insertion order: the
// graph's compiled layout, read in place rather than copied per loop.
func functions(sim simulator.ControlPlane) []dag.NodeID { return sim.App().Graph.Layout().Nodes }

// predictCountWithBacklog combines the count prediction with current
// backlog so queued invocations also trigger scaling.
func predictCountWithBacklog(s *SMIless, sim simulator.ControlPlane) int {
	g := s.predictCount(sim)
	for _, id := range functions(sim) {
		if q := sim.QueueLen(id); q > g {
			g = q
		}
	}
	return g
}
