package main

import (
	"time"

	"smiless/internal/autoscaler"
	"smiless/internal/coldstart"
	"smiless/internal/core"
	"smiless/internal/forecast"
	"smiless/internal/hardware"
	"smiless/internal/perfmodel"
	"smiless/internal/simulator"
)

// layerDef names one per-layer metric. The order is the order of the printed
// table and of -list; BENCHMARK.json's per_layer list must match it.
type layerDef struct{ name, unit string }

var layerDefs = []layerDef{
	{"forecast.fit_calls", "count"},
	{"forecast.fit_busy_s", "s"},
	{"forecast.fit_max_ms", "ms"},
	{"forecast.predict_calls", "count"},
	{"forecast.predict_busy_s", "s"},
	{"forecast.update_calls", "count"},
	{"forecast.update_busy_s", "s"},
	{"controller.on_window_calls", "count"},
	{"controller.on_window_busy_s", "s"},
	{"controller.on_window_p50_us", "us"},
	{"controller.on_window_p99_us", "us"},
	{"controller.on_window_max_ms", "ms"},
	{"controller.self_busy_s", "s"},
	{"controller.wall_share", "share"},
	{"core.replans", "count"},
	{"core.nodes_explored", "count"},
	{"core.cache_hit_share", "share"},
	{"core.optimize_cold_us", "us"},
	{"core.optimize_warm_us", "us"},
	{"autoscaler.decide_us", "us"},
	{"coldstart.evaluate_us", "us"},
	{"simulator.self_busy_s", "s"},
	{"simulator.self_us_per_req", "us"},
	{"simulator.executions", "count"},
	{"simulator.inits", "count"},
	{"simulator.warm_starts", "count"},
	{"simulator.mean_batch", "count"},
	{"simulator.init_gated", "count"},
	{"simulator.queue_share", "share"},
	{"simulator.init_share", "share"},
	{"simulator.exec_share", "share"},
	{"simulator.e2e_p99_s", "s"},
	{"serving.invoke_call_p50_us", "us"},
	{"serving.resolve_wait_p50_us", "us"},
	{"serving.resolve_wait_p99_us", "us"},
	{"serving.runtime_e2e_p50_us", "us"},
	{"serving.rejected", "count"},
	{"serving.completed", "count"},
	{"gateway.handler_p50_us", "us"},
	{"gateway.handler_p99_us", "us"},
	{"gateway.self_p50_us", "us"},
	{"nethttp.outside_handler_p50_us", "us"},
	{"loadgen.clients", "count"},
	{"loadgen.sent", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.lat_p99_us", "us"},
	{"loadgen.lat_max_us", "us"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_share", "share"},
	{"go.gc_pause_total_ms", "ms"},
	{"go.heap_peak_mb", "MB"},
	{"trace.generate_ms", "ms"},
	{"trace.arrivals", "count"},
	{"perfmodel.true_profiles_ms", "ms"},
	{"tracing.overhead_share", "share"},
	{"machine.spin_ms", "ms"},
}

// mergeRoundLayers folds the rounds of a traced run into the layer table:
// what the wrappers measured is the median over traced rounds; the Go
// runtime's own cost is read off the untraced rounds, where no recorder
// allocates; the tracing overhead is the median over like-for-like pairs.
func mergeRoundLayers(layer map[string]float64, plain, traced []round) {
	perRound := make([]map[string]float64, len(traced))
	for i, t := range traced {
		perRound[i] = t.layer
	}
	for k, v := range medianByKey(perRound) {
		layer[k] = v
	}
	layer["go.gc_cycles"] = medianOf(plain, func(r round) float64 { return float64(r.use.gcCycles) })
	layer["go.gc_cpu_share"] = medianOf(plain, func(r round) float64 { return r.use.gcCPUS / r.use.cpuS })
	layer["go.gc_pause_total_ms"] = medianOf(plain, func(r round) float64 { return r.use.gcPauseMs })
	// HeapSys only ever grows, so it is read after the first untraced round,
	// before any traced round has inflated it.
	layer["go.heap_peak_mb"] = plain[0].use.heapSysMB
	overhead := make([]float64, len(traced))
	for i, t := range traced {
		overhead[i] = (t.use.wallS - plain[i].use.wallS) / plain[i].use.wallS
	}
	layer["tracing.overhead_share"] = median(overhead)
}

// medianByKey takes, for every key any of the maps holds, the median of the
// values the maps hold for it.
func medianByKey(ms []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, m := range ms {
		for k := range m {
			out[k] = 0
		}
	}
	for k := range out {
		var vals []float64
		for _, m := range ms {
			if v, ok := m[k]; ok {
				vals = append(vals, v)
			}
		}
		out[k] = median(vals)
	}
	return out
}

// layerMetrics lays the measured values out in layerDefs order; a metric the
// workload has no layer for is marked n/a.
func layerMetrics(layer map[string]float64) []metric {
	out := make([]metric, len(layerDefs))
	for i, d := range layerDefs {
		v, ok := layer[d.name]
		out[i] = metric{name: d.name, unit: d.unit, value: v, na: !ok}
	}
	return out
}

// timedConstructor wraps a forecaster family so that every Fit, Predict and
// Update the controller makes is a span. The wrapper forwards the optional
// UpperBounder capability exactly when the wrapped forecaster has it, because
// the controller's quality harness behaves differently with and without it.
func timedConstructor(inner forecast.Constructor, log *spanLog) forecast.Constructor {
	return func(cfg forecast.Config) forecast.Forecaster { return wrapForecaster(inner(cfg), log) }
}

func wrapForecaster(f forecast.Forecaster, log *spanLog) forecast.Forecaster {
	t := &timedForecaster{inner: f, log: log}
	if ub, ok := f.(forecast.UpperBounder); ok {
		return &timedUpperForecaster{timedForecaster: t, upper: ub}
	}
	return t
}

type timedForecaster struct {
	inner forecast.Forecaster
	log   *spanLog
}

func (t *timedForecaster) Name() string { return t.inner.Name() }

func (t *timedForecaster) Fit(hist []forecast.Observation) error {
	id := t.log.begin("forecast.Fit")
	err := t.inner.Fit(hist)
	t.log.end(id)
	return err
}

func (t *timedForecaster) Predict(horizon int) []float64 {
	id := t.log.begin("forecast.Predict")
	out := t.inner.Predict(horizon)
	t.log.end(id)
	return out
}

func (t *timedForecaster) Update(obs forecast.Observation) {
	id := t.log.begin("forecast.Update")
	t.inner.Update(obs)
	t.log.end(id)
}

func (t *timedForecaster) Clone(seed int64) forecast.Forecaster {
	return wrapForecaster(t.inner.Clone(seed), t.log)
}

type timedUpperForecaster struct {
	*timedForecaster
	upper forecast.UpperBounder
}

func (t *timedUpperForecaster) PredictUpper(horizon int) []float64 {
	id := t.log.begin("forecast.Predict")
	out := t.upper.PredictUpper(horizon)
	t.log.end(id)
	return out
}

// timedDriver makes every call the simulator places into the control plane a
// span, so the simulator's self time is its Run span minus these.
type timedDriver struct {
	inner simulator.Driver
	log   *spanLog
}

func (d *timedDriver) Name() string { return d.inner.Name() }

func (d *timedDriver) Setup(cp simulator.ControlPlane) {
	id := d.log.begin("controller.Setup")
	d.inner.Setup(cp)
	d.log.end(id)
}

func (d *timedDriver) OnWindow(cp simulator.ControlPlane, now float64) {
	id := d.log.begin("controller.OnWindow")
	d.inner.OnWindow(cp, now)
	d.log.end(id)
}

// probeCalls is how many direct calls each probed function gets; the
// reported time is their median.
const probeCalls = 240

// timeCalls returns the median duration of n calls of f, in microseconds.
func timeCalls(n int, f func(i int)) float64 {
	durs := make([]float64, n)
	for i := range durs {
		t0 := time.Now()
		f(i)
		durs[i] = float64(time.Since(t0)) / 1e3
	}
	return median(durs)
}

// probe times the decision functions the controller calls, directly and on
// this workload's applications: a cold path search (no cache), a warm one
// (cache primed by the same request), one auto-scaler solve and one
// closed-form plan evaluation. The static driver plans nothing, so
// engine_static has no rows here.
func (st *simState) probe() map[string]float64 {
	type problem struct {
		req  core.Request
		prof *perfmodel.Profile
		plan *coldstart.Plan
	}
	var problems []problem
	cat := hardware.DefaultCatalog()
	for _, j := range st.jobs {
		if j.opts == nil {
			continue
		}
		profiles := j.app.TrueProfiles(perfmodel.DefaultUncertainty)
		req := core.Request{Graph: j.app.Graph, Profiles: profiles, SLA: simSLA * j.opts.SLAMargin, IT: 10, Batch: 1}
		res, err := core.New(cat).Optimize(req)
		if err != nil {
			continue // the run's own checks report a controller that cannot plan
		}
		problems = append(problems, problem{req: req, prof: profiles[j.app.Graph.Nodes()[0]], plan: res.Plan})
	}
	if len(problems) == 0 {
		return nil
	}
	cold := core.New(cat)
	cold.Cache = nil
	warm := core.New(cat)
	for _, p := range problems {
		_, _ = warm.Optimize(p.req) // primes the cache; the same call succeeded above
	}
	scaler := autoscaler.New(cat)
	pick := func(i int) problem { return problems[i%len(problems)] }
	return map[string]float64{
		"core.optimize_cold_us": timeCalls(probeCalls, func(i int) { _, _ = cold.Optimize(pick(i).req) }),
		"core.optimize_warm_us": timeCalls(probeCalls, func(i int) { _, _ = warm.Optimize(pick(i).req) }),
		"autoscaler.decide_us": timeCalls(probeCalls, func(i int) {
			scaler.ResetMemo()
			scaler.DecideOrFallback(pick(i).prof, 16+i%16, 1.0, 0.8)
		}),
		"coldstart.evaluate_us": timeCalls(probeCalls, func(i int) {
			p := pick(i)
			_, _ = coldstart.Evaluate(p.req.Graph, p.req.Profiles, p.plan, hardware.DefaultPricing, p.req.IT, 1)
		}),
	}
}
