package simulator

import (
	"maps"
	"sort"

	"smiless/internal/forecast"
	"smiless/internal/metrics"
)

// RecordMetrics exports the run's headline and resilience counters into a
// metrics store at time t (typically the end of the run), under the given
// label set (e.g. {"system": ..., "app": ...}). Series names follow the
// Prometheus convention so metrics.WriteText produces a scrapeable
// exposition.
func (r *RunStats) RecordMetrics(store *metrics.Store, labels metrics.Labels, t float64) {
	rec := func(name string, v float64) { store.Record(name, labels, t, v) }

	rec("smiless_requests_completed_total", float64(r.Completed))
	rec("smiless_requests_failed_total", float64(r.FailedInvocations))
	rec("smiless_availability_ratio", r.Availability())
	rec("smiless_violation_rate_ratio", r.ViolationRate())
	rec("smiless_total_cost_dollars", r.TotalCost)
	rec("smiless_container_inits_total", float64(r.Inits))

	rec("smiless_retries_total", float64(r.Retries))
	rec("smiless_timeouts_total", float64(r.Timeouts))
	rec("smiless_init_failures_total", float64(r.InitFailures))
	rec("smiless_exec_failures_total", float64(r.ExecFailures))
	rec("smiless_stragglers_total", float64(r.Stragglers))
	rec("smiless_hedges_launched_total", float64(r.HedgesLaunched))
	rec("smiless_hedges_won_total", float64(r.HedgesWon))
	rec("smiless_node_down_events_total", float64(r.NodeDownEvents))
	rec("smiless_evicted_containers_total", float64(r.EvictedContainers))
	rec("smiless_breaker_trips_total", float64(r.BreakerTrips))
	rec("smiless_degraded_windows_total", float64(r.DegradedWindows))
	rec("smiless_forwards_total", float64(r.Forwards))
	rec("smiless_failovers_total", float64(r.Failovers))
	rec("smiless_node_down_seconds_total", r.NodeDownSeconds)
	rec("smiless_deadline_exceeded_total", float64(r.DeadlineExceeded))
	rec("smiless_abandoned_total", float64(r.Abandoned))

	// Prediction quality (absent unless the driver ran a forecaster, so
	// forecast-free expositions stay byte-identical to earlier builds).
	if r.ForecastName != "" {
		for _, role := range []struct {
			name   string
			report *forecast.QualityReport
		}{{"interarrival", &r.ForecastIT}, {"count", &r.ForecastCount}} {
			fl := metrics.Labels{}
			maps.Copy(fl, labels)
			fl["forecaster"] = r.ForecastName
			fl["role"] = role.name
			rep := role.report
			store.Record("smiless_forecast_mae_one_step", fl, t, rep.OneStepMAE())
			store.Record("smiless_forecast_smape_one_step", fl, t, rep.OneStepSMAPE())
			store.Record("smiless_forecast_upper_violation_ratio", fl, t, rep.UpperViolationRate)
			store.Record("smiless_forecast_refits_total", fl, t, float64(rep.Refits))
			store.Record("smiless_forecast_drift_refits_total", fl, t, float64(rep.DriftRefits))
		}
	}

	// Critical-path attribution (all zero unless the run was traced).
	rec("smiless_queue_on_path_seconds_total", r.QueueOnPathSeconds)
	rec("smiless_init_on_path_seconds_total", r.InitOnPathSeconds)
	rec("smiless_exec_on_path_seconds_total", r.ExecOnPathSeconds)
	rec("smiless_retry_on_path_seconds_total", r.RetryOnPathSeconds)
	for _, fn := range sortedViolationFns(r.ViolationByFn) {
		fl := metrics.Labels{}
		maps.Copy(fl, labels)
		fl["function"] = fn
		store.Record("smiless_sla_violations_attributed_total", fl, t, float64(r.ViolationByFn[fn]))
	}
}

// sortedViolationFns returns the attribution map's keys in sorted order so
// metric emission is deterministic.
func sortedViolationFns(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for fn := range m {
		out = append(out, fn)
	}
	sort.Strings(out)
	return out
}
