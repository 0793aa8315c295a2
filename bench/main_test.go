package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestRoundCountDependsOnFlagsOnly(t *testing.T) {
	cases := []struct {
		seconds, nominal float64
		quick            bool
		want             int
	}{
		{14, 3, false, 5},
		{14, 6, false, 3}, // never fewer than minRounds
		{1, 3, false, 3},
		{60, 2.7, false, 22},
		{60, 2.7, true, 3},
	}
	for _, c := range cases {
		if got := roundCount(c.seconds, c.nominal, c.quick); got != c.want {
			t.Errorf("roundCount(%v, %v, %v) = %d, want %d", c.seconds, c.nominal, c.quick, got, c.want)
		}
	}
}

func TestParseFlagsTakesTheDriversCommandLine(t *testing.T) {
	o, list, err := parseFlags(strings.Fields("--workload live_http --seed 42 --seconds 9 --trace 1"))
	if err != nil || list {
		t.Fatalf("err=%v list=%v", err, list)
	}
	if o.workload != "live_http" || o.seed != 42 || o.seconds != 9 || !o.trace {
		t.Errorf("options = %+v", o)
	}
	if o, _, _ := parseFlags([]string{"-trace-out", "x.json", "-workload", "live_http"}); !o.trace {
		t.Error("-trace-out alone must select the traced run")
	}
	for _, bad := range []string{"--workload nope", "--trace 2", "--seconds 0", "stray"} {
		if _, _, err := parseFlags(strings.Fields(bad)); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// syntheticRounds is three rounds with round numbers easy to check by hand.
func syntheticRounds() []round {
	mk := func(wall float64, lat ...float64) round {
		return round{
			use:  usage{wallS: wall, cpuS: 2 * wall, mallocs: 4000, bytes: 2e6},
			sent: 100, completed: 100, scored: 80, withinSLA: 60, costUSD: 0.5, latMs: lat,
		}
	}
	return []round{mk(1, 10, 20, 30), mk(2, 10, 20, 90), mk(4, 70, 80, 90)}
}

func metricByName(ms []metric, name string) metric {
	for _, m := range ms {
		if m.name == name {
			return m
		}
	}
	return metric{value: math.NaN()}
}

func TestEndToEndPoolsSimQualityAndTakesTheFastestRoundsTimings(t *testing.T) {
	ms := endToEnd(workload{sim: true}, syntheticRounds(), 1.25)
	want := map[string]float64{
		"setup_s":          1.25,
		"req_per_s":        100,  // 100 / 1 s, the fastest round
		"cpu_us_per_req":   20e3, // 2 s / 100
		"allocs_per_req":   40,   // median, as is alloc_kb_per_req
		"alloc_kb_per_req": 20,
		"sla_attain_share": 0.75, // 180/240 pooled
		"cost_usd_per_1k":  5,    // 1.5 USD / 300 × 1000
		"lat_p50_ms":       30,   // pooled: 10 10 20 20 30 70 80 90 90
		"lat_p90_ms":       90,
	}
	for name, w := range want {
		if got := metricByName(ms, name).value; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	if n := metricByName(ms, "lat_p90_ms").samples; n != 9 {
		t.Errorf("lat_p90_ms sample count = %d, want 9", n)
	}
}

func TestEndToEndTakesTheBestRoundOfLivePercentilesAndCost(t *testing.T) {
	rounds := syntheticRounds()
	rounds[1].costUSD = 0.2
	ms := endToEnd(workload{}, rounds, 1)
	// Per-round p50: 20, 20, 80 → 20. Per-round p90: 28, 76, 88 → 28.
	if got := metricByName(ms, "lat_p50_ms").value; got != 20 {
		t.Errorf("lat_p50_ms = %v, want 20", got)
	}
	if got := metricByName(ms, "lat_p90_ms").value; math.Abs(got-28) > 1e-9 {
		t.Errorf("lat_p90_ms = %v, want 28", got)
	}
	if got := metricByName(ms, "cost_usd_per_1k").value; math.Abs(got-2) > 1e-9 {
		t.Errorf("cost_usd_per_1k = %v, want the cheapest round's 2", got)
	}
	if n := metricByName(ms, "lat_p90_ms").samples; n != 3 {
		t.Errorf("sample count = %d, want one round's 3", n)
	}
}

func TestLayerMetricsMarksMissingLayersNA(t *testing.T) {
	ms := layerMetrics(map[string]float64{"serving.completed": 12})
	if len(ms) != len(layerDefs) {
		t.Fatalf("%d metrics, want the full matrix of %d", len(ms), len(layerDefs))
	}
	if m := metricByName(ms, "serving.completed"); m.na || m.value != 12 {
		t.Errorf("serving.completed = %+v", m)
	}
	if m := metricByName(ms, "forecast.fit_calls"); !m.na || m.value != 0 {
		t.Errorf("forecast.fit_calls = %+v, want n/a and 0", m)
	}
}

func TestMergeRoundLayers(t *testing.T) {
	plain := []round{
		{use: usage{wallS: 1, cpuS: 2, gcCPUS: 0.5, gcCycles: 10}},
		{use: usage{wallS: 2, cpuS: 2, gcCPUS: 0.2, gcCycles: 30}},
		{use: usage{wallS: 1, cpuS: 1, gcCPUS: 0.3, gcCycles: 20}},
	}
	traced := []round{
		{use: usage{wallS: 1.5}, layer: map[string]float64{"x": 3}},
		{use: usage{wallS: 2.2}, layer: map[string]float64{"x": 1}},
		{use: usage{wallS: 1.2}, layer: map[string]float64{"x": 2, "only_here": 9}},
	}
	layer := map[string]float64{}
	mergeRoundLayers(layer, plain, traced)
	want := map[string]float64{"x": 2, "only_here": 9, "go.gc_cycles": 20, "go.gc_cpu_share": 0.25, "tracing.overhead_share": 0.2}
	for k, w := range want {
		if got := layer[k]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got, w)
		}
	}
}

func TestOutputSchema(t *testing.T) {
	res := &result{
		attempted: 10, failed: 0,
		endToEnd: []metric{{name: "req_per_s", unit: "1/s", value: 12.5}, {name: "lat_p50_ms", unit: "ms", value: math.NaN()}},
		perLayer: []metric{{name: "serving.completed", unit: "count", value: 10}},
	}
	line, err := json.Marshal(res.output(false))
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("key %q missing from %s", k, line)
		}
	}
	if len(got) != 4 {
		t.Errorf("want exactly four keys, got %s", line)
	}
	var ms map[string]map[string]any
	if err := json.Unmarshal(got["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if m := ms["req_per_s"]; len(m) != 2 || m["value"] != 12.5 || m["unit"] != "1/s" {
		t.Errorf("req_per_s = %v", m)
	}
	if m := ms["lat_p50_ms"]; m["value"] != float64(0) {
		t.Errorf("NaN must not reach the JSON: %v", m)
	}
	if _, ok := res.output(true).Metrics["serving.completed"]; !ok {
		t.Error("traced output must carry the per-layer metrics")
	}
	res.checks = []string{"boom"}
	if res.output(false).Correct {
		t.Error("a failed check must clear correct")
	}
}

// BENCHMARK.json and the program must name the same workloads and metrics,
// or the driver would ask for something the program does not print.
func TestContractMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		t.Skip("no BENCHMARK.json beside this directory")
	}
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the contract, %d in the program", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: contract %q, program %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	e2e := endToEnd(workload{}, nil, 0)
	if len(c.EndToEnd) != len(e2e) {
		t.Fatalf("%d end-to-end metrics in the contract, %d in the program", len(c.EndToEnd), len(e2e))
	}
	sawSetup := false
	for i, m := range c.EndToEnd {
		if m.Name != e2e[i].name || m.Unit != e2e[i].unit {
			t.Errorf("end_to_end %d: contract %s [%s], program %s [%s]", i, m.Name, m.Unit, e2e[i].name, e2e[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("%s [%s]: name or unit outside the contract's alphabet", m.Name, m.Unit)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("the contract needs setup_s [s], lower is better")
	}
	if len(c.PerLayer) != len(layerDefs) {
		t.Fatalf("%d per-layer metrics in the contract, %d in the program", len(c.PerLayer), len(layerDefs))
	}
	for i, m := range c.PerLayer {
		if m.Name != layerDefs[i].name || m.Unit != layerDefs[i].unit {
			t.Errorf("per_layer %d: contract %s [%s], program %s [%s]", i, m.Name, m.Unit, layerDefs[i].name, layerDefs[i].unit)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("%s [%s]: name or unit outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", c.RunSeconds)
	}
}

func TestListPrintsEveryName(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, w := range workloads {
		if !strings.Contains(out, w.name) {
			t.Errorf("-list does not mention workload %s", w.name)
		}
	}
	for _, d := range layerDefs {
		if !strings.Contains(out, d.name) {
			t.Errorf("-list does not mention %s", d.name)
		}
	}
	if !strings.Contains(out, "lat_p90_ms") || !strings.Contains(out, "1/s") {
		t.Errorf("-list lacks end-to-end names or units:\n%s", out)
	}
}
