package simulator

import (
	"encoding/json"
	"fmt"
	"io"

	"smiless/internal/mathx"
)

// Report is the serializable summary of one run: what an experiment
// pipeline archives next to its tables. It is derived from RunStats and
// deterministic for a deterministic run.
type Report struct {
	System    string  `json:"system"`
	App       string  `json:"app"`
	SLA       float64 `json:"sla_seconds"`
	Requests  int     `json:"requests"`
	Measured  int     `json:"measured_requests"`
	TotalCost float64 `json:"total_cost_dollars"`

	ViolationRate float64 `json:"violation_rate"`
	LatencyP50    float64 `json:"latency_p50_seconds"`
	LatencyP95    float64 `json:"latency_p95_seconds"`
	LatencyP99    float64 `json:"latency_p99_seconds"`
	LatencyMax    float64 `json:"latency_max_seconds"`

	Inits           int     `json:"container_inits"`
	ReinitPerReq    float64 `json:"reinit_per_request"`
	InitGated       int     `json:"init_gated_batches"`
	MeanBatch       float64 `json:"mean_batch"`
	CPUSeconds      float64 `json:"cpu_container_seconds"`
	GPUSeconds      float64 `json:"gpu_container_seconds"`
	CPUCost         float64 `json:"cpu_cost_dollars"`
	GPUCost         float64 `json:"gpu_cost_dollars"`
	CapacityBlocked int     `json:"capacity_blocked_launches"`

	// Resilience counters (all zero and omitted on fault-free runs).
	Availability      float64 `json:"availability,omitempty"`
	FailedRequests    int     `json:"failed_requests,omitempty"`
	Retries           int     `json:"retries,omitempty"`
	Timeouts          int     `json:"timeouts,omitempty"`
	InitFailures      int     `json:"init_failures,omitempty"`
	ExecFailures      int     `json:"exec_failures,omitempty"`
	Stragglers        int     `json:"stragglers,omitempty"`
	HedgesLaunched    int     `json:"hedges_launched,omitempty"`
	HedgesWon         int     `json:"hedges_won,omitempty"`
	NodeDownEvents    int     `json:"node_down_events,omitempty"`
	EvictedContainers int     `json:"evicted_containers,omitempty"`
	BreakerTrips      int     `json:"breaker_trips,omitempty"`
	DegradedWindows   int     `json:"degraded_windows,omitempty"`
	Forwards          int     `json:"forwards,omitempty"`
	Failovers         int     `json:"failovers,omitempty"`
	NodeDownSeconds   float64 `json:"node_down_seconds,omitempty"`
	DeadlineExceeded  int     `json:"deadline_exceeded,omitempty"`
	Abandoned         int     `json:"abandoned,omitempty"`

	// Critical-path attribution (zero and omitted unless the run was traced
	// with internal/tracing): per-phase seconds summed over the measured
	// requests' critical paths, and SLA violations attributed to the blamed
	// function. Untraced runs serialize byte-identically to pre-tracing
	// builds.
	QueueOnPathSeconds   float64                  `json:"queue_on_path_seconds,omitempty"`
	InitOnPathSeconds    float64                  `json:"init_on_path_seconds,omitempty"`
	ExecOnPathSeconds    float64                  `json:"exec_on_path_seconds,omitempty"`
	RetryOnPathSeconds   float64                  `json:"retry_on_path_seconds,omitempty"`
	ViolationsByFunction []FunctionViolationEntry `json:"violations_by_function,omitempty"`

	// CostByFunction is sorted by descending cost for stable output.
	CostByFunction []FunctionCostEntry `json:"cost_by_function"`
}

// FunctionViolationEntry attributes SLA violations to one function.
type FunctionViolationEntry struct {
	Function   string `json:"function"`
	Violations int    `json:"violations"`
}

// FunctionCostEntry attributes cost to one function.
type FunctionCostEntry struct {
	Function string  `json:"function"`
	Cost     float64 `json:"cost_dollars"`
}

// BuildReport assembles a Report from run statistics.
func BuildReport(system, app string, st *RunStats) Report {
	r := Report{
		System:          system,
		App:             app,
		SLA:             st.SLA,
		Requests:        st.Completed,
		Measured:        len(st.E2E),
		TotalCost:       st.TotalCost,
		ViolationRate:   st.ViolationRate(),
		LatencyP50:      st.LatencyPercentile(50),
		LatencyP95:      st.LatencyPercentile(95),
		LatencyP99:      st.LatencyPercentile(99),
		LatencyMax:      mathx.Max(st.E2E),
		Inits:           st.Inits,
		ReinitPerReq:    st.ReinitFraction(),
		InitGated:       st.InitGated,
		MeanBatch:       st.MeanBatch(),
		CPUSeconds:      st.CPUSeconds,
		GPUSeconds:      st.GPUSeconds,
		CPUCost:         st.CPUCost,
		GPUCost:         st.GPUCost,
		CapacityBlocked: st.CapacityBlocked,
	}
	if st.resilienceActive() {
		r.Availability = st.Availability()
		r.FailedRequests = st.FailedInvocations
		r.Retries = st.Retries
		r.Timeouts = st.Timeouts
		r.InitFailures = st.InitFailures
		r.ExecFailures = st.ExecFailures
		r.Stragglers = st.Stragglers
		r.HedgesLaunched = st.HedgesLaunched
		r.HedgesWon = st.HedgesWon
		r.NodeDownEvents = st.NodeDownEvents
		r.EvictedContainers = st.EvictedContainers
		r.BreakerTrips = st.BreakerTrips
		r.DegradedWindows = st.DegradedWindows
		r.Forwards = st.Forwards
		r.Failovers = st.Failovers
		r.NodeDownSeconds = st.NodeDownSeconds
		r.DeadlineExceeded = st.DeadlineExceeded
		r.Abandoned = st.Abandoned
	}
	r.QueueOnPathSeconds = st.QueueOnPathSeconds
	r.InitOnPathSeconds = st.InitOnPathSeconds
	r.ExecOnPathSeconds = st.ExecOnPathSeconds
	r.RetryOnPathSeconds = st.RetryOnPathSeconds
	for _, fn := range sortedViolationFns(st.ViolationByFn) {
		r.ViolationsByFunction = append(r.ViolationsByFunction,
			FunctionViolationEntry{Function: fn, Violations: st.ViolationByFn[fn]})
	}
	for _, fn := range st.TopCostFunctions() {
		r.CostByFunction = append(r.CostByFunction, FunctionCostEntry{Function: fn, Cost: st.CostPerFn[fn]})
	}
	return r
}

// WriteJSON writes the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses a report written by WriteJSON.
func ReadReport(rd io.Reader) (Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return Report{}, fmt.Errorf("simulator: decoding report: %w", err)
	}
	return r, nil
}
