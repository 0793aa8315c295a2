package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"smiless/internal/apps"
	"smiless/internal/coldstart"
	"smiless/internal/controller"
	"smiless/internal/experiments"
	"smiless/internal/forecast"
	"smiless/internal/hardware"
	"smiless/internal/perfmodel"
	"smiless/internal/simulator"
	"smiless/internal/trace"
	"smiless/internal/tracing"
)

// simSLA is the end-to-end bound of every simulated workload (paper §VII-A).
const simSLA = 2.0

// Arrival envelopes and the controller's predictor initialisation are part of
// the workload definition on the two controller workloads, not of the seed:
// the paper replays fixed Azure traces, and re-drawing even the placement of
// arrivals inside their second flips the number of drift-triggered LSTM
// refits (18 ↔ 22 on paper_lstm) and moves cost per request by ±15 %, which
// no bound could tell from a regression. The seed drives what the substrate
// samples: every container's initialisation and inference time.
const (
	envelopeSeed   = 7700
	controllerSeed = 1000
)

// simJob is one (application, arrival trace, driver) evaluation; a round runs
// every job of its workload once.
type simJob struct {
	app *apps.Application
	tr  *trace.Trace
	// scored is the number of arrivals inside the scored window (at or
	// after the measurement warm-up the simulator excludes from E2E).
	scored int
	// opts configures the SMIless controller; nil selects the static driver.
	opts *controller.Options
}

type simState struct {
	seed int64
	jobs []simJob
	// warmKeys are the output keys of the warm-up, which replays the first
	// jobs of round 0; round 0 must reproduce them.
	warmKeys []string
	setupMs  map[string]float64
}

// mix derives a stream seed from the run seed and two indices (splitmix64
// finaliser), so neighbouring rounds and jobs get unrelated streams.
func mix(seed int64, a, b int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(a)*0xBF58476D1CE4E5B9 + uint64(b)*0x94D049BB133111EB + 1
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}

func newJob(app *apps.Application, tr *trace.Trace, opts *controller.Options) simJob {
	after := experiments.WarmupFor(tr)
	scored := 0
	for _, a := range tr.Arrivals {
		if a >= after {
			scored++
		}
	}
	return simJob{app: app, tr: tr, scored: scored, opts: opts}
}

// buildSim assembles a simulated workload: makeJobs generates the inputs,
// then the first warmJobs jobs of round 0 run once as the warm-up.
func buildSim(o options, warmJobs int, makeJobs func(st *simState) error) (state, error) {
	st := &simState{seed: o.seed, setupMs: map[string]float64{}}
	if err := makeJobs(st); err != nil {
		return nil, err
	}
	arrivals := 0
	for _, j := range st.jobs {
		arrivals += j.tr.Len()
	}
	st.setupMs["trace.arrivals"] = float64(arrivals)
	t0 := time.Now()
	for _, j := range st.jobs {
		j.app.TrueProfiles(perfmodel.DefaultUncertainty)
	}
	st.setupMs["perfmodel.true_profiles_ms"] = time.Since(t0).Seconds() * 1e3
	for i := 0; i < warmJobs && i < len(st.jobs); i++ {
		stats, err := st.jobs[i].run(mix(st.seed, 0, i), nil, nil)
		if err != nil {
			return nil, fmt.Errorf("warm-up job %d: %w", i, err)
		}
		st.warmKeys = append(st.warmKeys, outputKey(stats))
	}
	return st, nil
}

// azureJobs generates one Azure-like trace per app from the fixed envelope
// seed and times the generation.
func (st *simState) azureJobs(appList []*apps.Application, params trace.AzureLikeParams, opts controller.Options) {
	t0 := time.Now()
	traces := make([]*trace.Trace, len(appList))
	for i := range appList {
		traces[i] = trace.AzureLike(rand.New(rand.NewSource(int64(envelopeSeed+i))), params)
	}
	st.setupMs["trace.generate_ms"] = time.Since(t0).Seconds() * 1e3
	for i, app := range appList {
		o := opts
		st.jobs = append(st.jobs, newJob(app, traces[i], &o))
	}
}

func setupPaperLSTM(o options) (state, error) {
	horizon := 800.0
	if o.quick {
		horizon = 300
	}
	return buildSim(o, 1, func(st *simState) error {
		st.azureJobs(
			[]*apps.Application{apps.ImageQuery(), apps.VoiceAssistant()},
			trace.DefaultAzureLike(horizon),
			controller.DefaultOptions(controllerSeed),
		)
		return nil
	})
}

func setupControlDense(o options) (state, error) {
	horizon := 3600.0
	if o.quick {
		horizon = 90
	}
	opts := controller.DefaultOptions(controllerSeed)
	opts.Forecaster = "naive"
	return buildSim(o, 2, func(st *simState) error {
		st.azureJobs(
			[]*apps.Application{apps.VoiceAssistant(), apps.AmberAlert(), apps.ImageQuery(), apps.Pipeline(12)},
			trace.DenseAzureLike(horizon),
			opts,
		)
		return nil
	})
}

func setupEngineStatic(o options) (state, error) {
	horizon, seeds := 3600.0, 4
	if o.quick {
		horizon, seeds = 180, 2
	}
	return buildSim(o, 2, func(st *simState) error {
		t0 := time.Now()
		for i := 0; i < seeds; i++ {
			// Twenty thousand arrivals per trace average the seed out, so
			// here the seed draws the arrivals too.
			tr := trace.Poisson(rand.New(rand.NewSource(mix(o.seed, -1, i))), 20, horizon)
			st.jobs = append(st.jobs, newJob(apps.ImageQuery(), tr, nil))
		}
		st.setupMs["trace.generate_ms"] = time.Since(t0).Seconds() * 1e3
		return nil
	})
}

// staticDriver is the bench-owned driver of engine_static and of the live
// workloads: one fixed keep-alive directive per function, the whole pool
// launched at set-up, and no control loop, so everything a run costs is the
// substrate's. Launching the pool up front matters for repeatability: grown
// reactively, its size is decided by who races whom in the first seconds and
// then kept for the whole run, which moved SLA attainment on engine_static
// between 0.70 and 0.84 from one seed to the next.
type staticDriver struct{ batch, instances int }

func (staticDriver) Name() string { return "bench-static" }

func (d staticDriver) Setup(cp simulator.ControlPlane) {
	for _, id := range cp.App().Graph.Nodes() {
		cp.SetDirective(id, simulator.Directive{
			Config:    hardware.Config{Kind: hardware.CPU, Cores: 4},
			Policy:    coldstart.KeepAlive,
			KeepAlive: 3600,
			Batch:     d.batch,
			Instances: d.instances,
		})
		cp.EnsureInstances(id, d.instances)
	}
}

func (staticDriver) OnWindow(simulator.ControlPlane, float64) {}

// run evaluates the job once. Untraced (log == nil) it goes through the same
// entry point the public API uses. Traced, it assembles the same simulator by
// hand so the driver and the forecasters can be wrapped in timers and a
// recorder attached; the caller checks both variants produce equal outputs.
func (j simJob) run(simSeed int64, log *spanLog, rec *tracing.Recorder) (*simulator.RunStats, error) {
	if log == nil && j.opts != nil {
		return experiments.Run(experiments.SysSMIless, experiments.RunParams{
			App: j.app, SLA: simSLA, Seed: simSeed, Controller: j.opts,
		}, j.tr)
	}
	var drv simulator.Driver = staticDriver{batch: 4, instances: 20}
	if j.opts != nil {
		opts := *j.opts
		ctor, err := forecast.Lookup(opts.Forecaster)
		if err != nil {
			return nil, fmt.Errorf("forecaster %q: %w", opts.Forecaster, err)
		}
		opts.NewForecaster = timedConstructor(ctor, log)
		drv = controller.New(hardware.DefaultCatalog(), j.app.TrueProfiles(perfmodel.DefaultUncertainty), simSLA, opts)
	}
	if log != nil {
		drv = &timedDriver{inner: drv, log: log}
	}
	sim, err := simulator.New(simulator.Config{
		App: j.app, SLA: simSLA, Seed: simSeed, StatsAfter: experiments.WarmupFor(j.tr),
	}, drv)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		sim.AttachRecorder(rec)
	}
	id := log.begin("simulator.Run")
	stats, err := sim.Run(j.tr)
	log.end(id)
	return stats, err
}

// outputKey renders the fields of a run that a pure speed-up must leave
// bit-identical. Critical-path attribution is left out: it is filled only
// when a recorder is attached.
func outputKey(st *simulator.RunStats) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range st.E2E {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		_, _ = h.Write(b[:]) // hash.Hash.Write never fails
	}
	return fmt.Sprintf("done=%d viol=%d fail=%d cost=%x inits=%d warm=%d exec=%d batch=%d gated=%d e2e=%d:%x",
		st.Completed, st.Violations, st.FailedInvocations, math.Float64bits(st.TotalCost),
		st.Inits, st.WarmStarts, st.Executions, st.BatchSum, st.InitGated, len(st.E2E), h.Sum64())
}

func (st *simState) setupLayer() map[string]float64 { return st.setupMs }

func (st *simState) run(r int, log *spanLog) (round, error) {
	var rd round
	keys := ""
	var lay *simLayer
	if log != nil {
		lay = &simLayer{}
	}
	all := make([]*simulator.RunStats, len(st.jobs))
	recs := make([]*tracing.Recorder, len(st.jobs))
	runtime.GC()
	start := takeReading()
	for i, j := range st.jobs {
		if log != nil {
			recs[i] = tracing.NewRecorder(j.app.Graph)
		}
		stats, err := j.run(mix(st.seed, r, i), log, recs[i])
		if err != nil {
			return rd, fmt.Errorf("job %d (%s): %w", i, j.app.Name, err)
		}
		all[i] = stats
	}
	rd.use = takeReading().since(start)

	// Everything below is the bench's own bookkeeping and stays outside the
	// timed region.
	for i, j := range st.jobs {
		stats := all[i]
		key := outputKey(stats)
		keys += key + "\n"
		if r == 0 && log == nil && i < len(st.warmKeys) && st.warmKeys[i] != key && rd.check == "" {
			rd.check = fmt.Sprintf("job %d (%s) does not reproduce its warm-up run: the simulation is not deterministic", i, j.app.Name)
		}
		unresolved := j.tr.Len() - stats.Completed - stats.FailedInvocations
		if unresolved != 0 && rd.check == "" {
			rd.check = fmt.Sprintf("job %d (%s): %d of %d requests neither completed nor failed", i, j.app.Name, unresolved, j.tr.Len())
		}
		rd.sent += j.tr.Len()
		rd.completed += stats.Completed
		rd.failed += j.tr.Len() - stats.Completed
		rd.scored += j.scored
		rd.withinSLA += len(stats.E2E) - stats.Violations
		rd.costUSD += stats.TotalCost
		for _, v := range stats.E2E {
			rd.latMs = append(rd.latMs, v*1e3)
		}
		if lay != nil {
			lay.add(stats, recs[i])
		}
	}
	rd.key = keys
	if lay != nil {
		rd.layer = lay.metrics(log.spans, rd)
	}
	return rd, nil
}

// simLayer accumulates, over the jobs of one traced round, the counters the
// simulator and the recorder already keep.
type simLayer struct {
	executions, inits, warmStarts, batchSum, initGated int
	queueS, initS, execS                               float64
	replans, nodesExplored, cacheHits, cacheMisses     int
}

func (l *simLayer) add(st *simulator.RunStats, rec *tracing.Recorder) {
	l.executions += st.Executions
	l.inits += st.Inits
	l.warmStarts += st.WarmStarts
	l.batchSum += st.BatchSum
	l.initGated += st.InitGated
	l.queueS += st.QueueOnPathSeconds
	l.initS += st.InitOnPathSeconds
	l.execS += st.ExecOnPathSeconds
	for _, in := range rec.Instants() {
		if in.Name != "reoptimize" {
			continue
		}
		l.replans++
		for _, kv := range in.Args {
			n, err := strconv.Atoi(kv.Val)
			if err != nil {
				continue // booleans and floats are not counters
			}
			switch kv.Key {
			case "nodes_explored":
				l.nodesExplored += n
			case "cache_hits":
				l.cacheHits += n
			case "cache_misses":
				l.cacheMisses += n
			}
		}
	}
}

func (l *simLayer) metrics(spans []span, rd round) map[string]float64 {
	by := totalsByName(spans)
	get := func(name string) *nameTotals {
		if t := by[name]; t != nil {
			return t
		}
		return &nameTotals{}
	}
	fit, pred, upd := get("forecast.Fit"), get("forecast.Predict"), get("forecast.Update")
	win, simRun := get("controller.OnWindow"), get("simulator.Run")
	winSorted := sortedCopy(win.durs)
	onPath := l.queueS + l.initS + l.execS
	m := map[string]float64{
		"forecast.fit_calls":          float64(fit.calls),
		"forecast.fit_busy_s":         float64(fit.busy) / 1e9,
		"forecast.fit_max_ms":         float64(fit.max) / 1e6,
		"forecast.predict_calls":      float64(pred.calls),
		"forecast.predict_busy_s":     float64(pred.busy) / 1e9,
		"forecast.update_calls":       float64(upd.calls),
		"forecast.update_busy_s":      float64(upd.busy) / 1e9,
		"controller.on_window_calls":  float64(win.calls),
		"controller.on_window_busy_s": float64(win.busy) / 1e9,
		"controller.on_window_max_ms": float64(win.max) / 1e6,
		"controller.self_busy_s":      float64(win.self) / 1e9,
		"controller.wall_share":       float64(win.busy) / 1e9 / rd.use.wallS,
		"core.replans":                float64(l.replans),
		"core.nodes_explored":         float64(l.nodesExplored),
		"simulator.self_busy_s":       float64(simRun.self) / 1e9,
		"simulator.self_us_per_req":   perReq(float64(simRun.self)/1e3, rd.completed),
		"simulator.executions":        float64(l.executions),
		"simulator.inits":             float64(l.inits),
		"simulator.warm_starts":       float64(l.warmStarts),
		"simulator.mean_batch":        perReq(float64(l.batchSum), l.executions),
		"simulator.init_gated":        float64(l.initGated),
		"loadgen.sent":                float64(rd.sent),
		"loadgen.failed":              float64(rd.failed),
	}
	if len(winSorted) > 0 {
		m["controller.on_window_p50_us"] = quantile(winSorted, 0.5)
		m["controller.on_window_p99_us"] = quantile(winSorted, 0.99)
	}
	if looked := l.cacheHits + l.cacheMisses; looked > 0 {
		m["core.cache_hit_share"] = float64(l.cacheHits) / float64(looked)
	}
	if onPath > 0 {
		m["simulator.queue_share"] = l.queueS / onPath
		m["simulator.init_share"] = l.initS / onPath
		m["simulator.exec_share"] = l.execS / onPath
	}
	if s := sortedCopy(rd.latMs); len(s) > 0 {
		m["simulator.e2e_p99_s"] = quantile(s, 0.99) / 1e3
	}
	return m
}
