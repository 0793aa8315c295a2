// Command bench is the repository's contract benchmark: five workloads, each
// built so that one layer of the system does most of the work, measured as
// rounds of fixed work on one P and reported as the fastest round. README.md
// in this directory holds the protocol, the metric definitions and the layer
// → end-to-end predictions; BENCHMARK.json at the repository root is the
// contract the numbers are judged by.
//
//	bash bench/run.sh --workload control_dense --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh                      # every workload, end-to-end metrics
//	bash bench/run.sh -workload live_http -trace-out .bench_build/t.json
//	bash bench/run.sh -list
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// processStart is taken as early as a Go program can: the first set-up is
// timed from here so that runtime and package initialisation count as set-up.
var processStart = time.Now()

// maxProcs pins the scheduler to one P (Go 1.24 ignores a container CPU
// quota and would otherwise run one per host core). The reference box's two
// virtual cores share a physical core for minutes at a time; whatever runs on
// two threads then (the live workloads' goroutines handing each other
// requests, the collector's background workers beside a simulation) slows by
// up to a third, for whole runs. On one P a run measures the program's work
// and not where the host put the second thread (NOISE.md, studies 3 to 5).
const maxProcs = 1

// setupReps is how many times a run sets up from scratch; setup_s is the
// fastest, like every other clock metric (see fastestOf).
const setupReps = 3

// minRounds is the floor on measured rounds: with fewer than three, one
// episode of interference can cover them all.
const minRounds = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	quick    bool
}

// metric is one reported number. samples > 0 prints the sample count beside
// a percentile; na marks a per-layer metric that has no meaning on the
// workload (printed as "n/a", emitted as 0 because the contract wants the
// full matrix).
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
	na      bool
}

// round is what one fixed-work round produced. The first block is filled by
// every workload; layer is filled on traced rounds only.
type round struct {
	use       usage
	sent      int     // requests issued
	completed int     // requests that came back successfully
	failed    int     // failed, refused, timed out, non-200 or never resolved
	scored    int     // requests sent inside the scored window
	withinSLA int     // scored requests that finished within the SLA
	costUSD   float64 // Eq. 3 cost charged to this round
	latMs     []float64
	// key identifies the round's outputs bit for bit on deterministic
	// (simulated) workloads; rounds with equal inputs must have equal keys.
	key string
	// check is the first failed output check, empty when all passed.
	check string
	layer map[string]float64
}

// state is a workload after set-up: inputs built, warm-up done.
type state interface {
	// run executes measured round r. With a non-nil log it is the traced
	// variant: same inputs, wrappers and recorder attached, spans logged.
	run(r int, log *spanLog) (round, error)
	// setupLayer reports what set-up itself measured (trace generation,
	// profile construction), per set-up.
	setupLayer() map[string]float64
	// probe times direct calls into layers that no wrapper can isolate
	// (optimizer, auto-scaler, cold-start evaluation).
	probe() map[string]float64
}

type workload struct {
	name string
	why  string
	// sim marks the deterministic substrate: quality metrics are pooled over
	// rounds and traced rounds must reproduce untraced ones bit for bit.
	sim bool
	// nominalRoundS is the length of one round on the reference box; the
	// round count is seconds ÷ nominalRoundS so that it depends on the
	// flags only, never on the clock.
	nominalRoundS float64
	setup         func(o options) (state, error)
}

var workloads = []workload{
	{
		name: "paper_lstm", sim: true, nominalRoundS: 3.8,
		why:   "The paper's default controller (LSTM pair) on Image-Query and Voice-Assistant; forecaster training is over 90% of the work.",
		setup: setupPaperLSTM,
	},
	{
		name: "control_dense", sim: true, nominalRoundS: 3,
		why:   "Naive forecaster on four apps under dense traffic: the per-window control path does ~80% of the work, training none.",
		setup: setupControlDense,
	},
	{
		name: "engine_static", sim: true, nominalRoundS: 2.7,
		why:   "Static keep-alive driver on 20 rps Poisson: the simulator's event loop, batching and billing do all the work.",
		setup: setupEngineStatic,
	},
	{
		name: "live_invoke", nominalRoundS: 1.75,
		why:   "Wall-clock runtime alone, zero-latency diamond DAG, 2 closed-loop callers of Invoke: admission, event loop, DAG join; no HTTP.",
		setup: setupLiveInvoke,
	},
	{
		name: "live_http", nominalRoundS: 2.3,
		why:   "Same runtime behind the gateway on a real TCP listener, 2 keep-alive clients: net/http and JSON dominate.",
		setup: setupLiveHTTP,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// roundCount turns the requested measuring time into a number of rounds.
func roundCount(seconds, nominalRoundS float64, quick bool) int {
	if quick {
		return minRounds
	}
	n := int(math.Round(seconds / nominalRoundS))
	if n < minRounds {
		n = minRounds
	}
	return n
}

// result is one run of one workload, ready to print.
type result struct {
	rounds    int
	endToEnd  []metric
	perLayer  []metric // empty unless traced
	attempted int
	failed    int
	checks    []string // failed output checks
	spans     []span   // last traced round
}

func (r *result) correct() bool { return len(r.checks) == 0 }

// runWorkload is the protocol: set up setupReps times (fastest → setup_s),
// then rounds of fixed work with a GC before each. A traced run interleaves
// each untraced round with its traced twin on the same inputs, so the layer
// table and the tracing overhead come from like-for-like pairs while the
// end-to-end metrics still come only from unwrapped rounds.
func runWorkload(w workload, o options, firstSetupFrom time.Time, progress io.Writer) (*result, error) {
	res := &result{}
	runtime.GOMAXPROCS(maxProcs)
	// The reference loop runs first, while the heap is small and no
	// background sweeper shares the core, and is not charged to set-up.
	spin := spinMs()
	fmt.Fprintf(progress, "machine: reference loop %.1f ms\n", spin)
	if !firstSetupFrom.IsZero() {
		firstSetupFrom = firstSetupFrom.Add(time.Duration(spin * float64(time.Millisecond)))
	}
	var st state
	var setups []float64
	var setupLayers []map[string]float64
	for i := 0; i < setupReps; i++ {
		from := time.Now()
		if i == 0 && !firstSetupFrom.IsZero() {
			from = firstSetupFrom
		}
		s, err := w.setup(o)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", w.name, i, err)
		}
		setups = append(setups, time.Since(from).Seconds())
		setupLayers = append(setupLayers, s.setupLayer())
		st = s
	}
	fmt.Fprintf(progress, "GOMAXPROCS=%d; set-up ×%d: %s s\n", runtime.GOMAXPROCS(0), setupReps, fmtFloats(setups))

	n := roundCount(o.seconds, w.nominalRoundS, o.quick)
	if o.trace {
		// A pair costs two rounds; keep the run inside the same budget.
		n = (n + 1) / 2
	}
	res.rounds = n
	var plain, traced []round
	for r := 0; r < n; r++ {
		rd, err := st.run(r, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: round %d: %w", w.name, r, err)
		}
		plain = append(plain, rd)
		res.attempted += rd.sent
		res.failed += rd.failed
		res.noteCheck(rd, fmt.Sprintf("round %d", r))
		lat := sortedCopy(rd.latMs)
		fmt.Fprintf(progress, "round %d: %.3f s wall, %.3f s cpu, %d/%d completed, latency p50 %.6g p90 %.6g ms\n",
			r, rd.use.wallS, rd.use.cpuS, rd.completed, rd.sent, quantile(lat, 0.5), quantile(lat, 0.9))
		if !o.trace {
			continue
		}
		log := newSpanLog()
		log.track = int32(r)
		td, err := st.run(r, log)
		if err != nil {
			return nil, fmt.Errorf("%s: traced round %d: %w", w.name, r, err)
		}
		traced = append(traced, td)
		res.noteCheck(td, fmt.Sprintf("traced round %d", r))
		if w.sim && td.key != rd.key {
			res.checks = append(res.checks, fmt.Sprintf("round %d: traced outputs differ from untraced (wrappers or recorder changed behaviour)", r))
		}
		res.spans = log.spans
		fmt.Fprintf(progress, "round %d traced: %.3f s wall, %d spans\n", r, td.use.wallS, len(log.spans))
	}
	res.endToEnd = endToEnd(w, plain, fastestOf(setups, func(s float64) float64 { return s }))
	if o.trace {
		layer := medianByKey(setupLayers)
		layer["machine.spin_ms"] = spin
		for k, v := range st.probe() {
			layer[k] = v
		}
		mergeRoundLayers(layer, plain, traced)
		res.perLayer = layerMetrics(layer)
	}
	return res, nil
}

// noteCheck records a round's failed output check, if it has one.
func (r *result) noteCheck(rd round, which string) {
	if rd.check != "" {
		r.checks = append(r.checks, which+": "+rd.check)
	}
}

// endToEnd turns untraced rounds into the contract's end-to-end metrics.
// Everything read off a clock is that of the fastest round (fastestOf), each
// metric for itself; allocation counts are medians over rounds. On the
// simulated substrate the quality metrics are functions of seed and code
// alone, every round is an equally good sample of them, and they are pooled;
// on the live substrate cost and latency are wall-clock quantities and take
// the fastest round like any timing.
func endToEnd(w workload, rounds []round, setupS float64) []metric {
	var scored, within, completed int
	var cost float64
	var lat []float64
	for _, r := range rounds {
		scored += r.scored
		within += r.withinSLA
		completed += r.completed
		cost += r.costUSD
		lat = append(lat, r.latMs...)
	}
	costPer1k := perReq(cost, completed) * 1000
	p50, p90 := math.NaN(), math.NaN()
	latN := len(lat)
	if w.sim {
		s := sortedCopy(lat)
		p50, p90 = quantile(s, 0.5), quantile(s, 0.9)
	} else {
		costPer1k = fastestOf(rounds, func(r round) float64 { return perReq(r.costUSD, r.completed) * 1000 })
		sorted := make([][]float64, len(rounds))
		for i, r := range rounds {
			sorted[i] = sortedCopy(r.latMs)
		}
		p50 = fastestOf(sorted, func(s []float64) float64 { return quantile(s, 0.5) })
		p90 = fastestOf(sorted, func(s []float64) float64 { return quantile(s, 0.9) })
		if len(rounds) > 0 {
			latN = len(rounds[0].latMs)
		}
	}
	return []metric{
		{name: "setup_s", unit: "s", value: setupS},
		{name: "req_per_s", unit: "1/s", value: 1 / fastestOf(rounds, func(r round) float64 { return perReq(r.use.wallS, r.completed) })},
		{name: "cpu_us_per_req", unit: "us", value: fastestOf(rounds, func(r round) float64 { return perReq(r.use.cpuS*1e6, r.completed) })},
		{name: "allocs_per_req", unit: "count", value: medianOf(rounds, func(r round) float64 { return perReq(float64(r.use.mallocs), r.completed) })},
		{name: "alloc_kb_per_req", unit: "kB", value: medianOf(rounds, func(r round) float64 { return perReq(float64(r.use.bytes)/1e3, r.completed) })},
		{name: "sla_attain_share", unit: "share", value: perReq(float64(within), scored), samples: scored},
		{name: "cost_usd_per_1k", unit: "USD", value: costPer1k},
		{name: "lat_p50_ms", unit: "ms", value: p50, samples: latN},
		{name: "lat_p90_ms", unit: "ms", value: p90, samples: latN},
	}
}

// output is the contract's last line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) output(traced bool) output {
	ms := r.endToEnd
	if traced {
		ms = r.perLayer
	}
	out := output{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return out
}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "%s\n", title)
	for _, m := range ms {
		switch {
		case m.na:
			fmt.Fprintf(w, "  %-34s %14s %-6s\n", m.name, "n/a", m.unit)
		case m.samples > 0:
			fmt.Fprintf(w, "  %-34s %14.6g %-6s (n=%d)\n", m.name, m.value, m.unit, m.samples)
		default:
			fmt.Fprintf(w, "  %-34s %14.6g %-6s\n", m.name, m.value, m.unit)
		}
	}
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-14s %s\n", wl.name, wl.why)
	}
	fmt.Fprintln(w, "end-to-end metrics:")
	for _, m := range endToEnd(workload{}, nil, 0) {
		fmt.Fprintf(w, "  %-34s %s\n", m.name, m.unit)
	}
	fmt.Fprintln(w, "per-layer metrics (traced run):")
	for _, d := range layerDefs {
		fmt.Fprintf(w, "  %-34s %s\n", d.name, d.unit)
	}
}

func parseFlags(args []string) (options, bool, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	var traceFlag int
	var list bool
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all five, one after the other)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&o.seconds, "seconds", 14, "measuring time; converted to a round count per workload")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer metrics on the last line")
	fs.StringVar(&o.traceOut, "trace-out", "", "traced run, and write its spans to this file as Chrome trace-event JSON")
	fs.BoolVar(&o.quick, "quick", false, "smoke run at ~1/50 scale with every check on")
	fs.BoolVar(&list, "list", false, "print workload and metric names with units, then exit")
	if err := fs.Parse(args); err != nil {
		return o, false, err
	}
	if fs.NArg() > 0 {
		return o, false, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, false, errors.New("-trace takes 0 or 1")
	}
	if o.seconds <= 0 {
		return o, false, errors.New("-seconds must be positive")
	}
	o.trace = traceFlag == 1 || o.traceOut != ""
	if o.workload != "" {
		if _, ok := findWorkload(o.workload); !ok {
			return o, false, fmt.Errorf("unknown workload %q (see -list)", o.workload)
		}
	}
	return o, list, nil
}

func writeTrace(path string, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("trace file: %w", cerr)
		}
	}()
	return writeChrome(f, spans)
}

func run(args []string, stdout io.Writer) error {
	o, list, err := parseFlags(args)
	if err != nil {
		return err
	}
	if list {
		printList(stdout)
		return nil
	}
	todo := workloads
	if o.workload != "" {
		w, _ := findWorkload(o.workload)
		todo = []workload{w}
	}
	if o.traceOut != "" && len(todo) != 1 {
		return errors.New("-trace-out needs -workload")
	}
	failed := false
	for i, w := range todo {
		fmt.Fprintf(stdout, "== %s  seed=%d seconds=%g trace=%t quick=%t NumCPU=%d %s\n",
			w.name, o.seed, o.seconds, o.trace, o.quick, runtime.NumCPU(), runtime.Version())
		from := time.Time{}
		if i == 0 {
			from = processStart
		}
		res, err := runWorkload(w, o, from, stdout)
		if err != nil {
			return err
		}
		printMetrics(stdout, fmt.Sprintf("end-to-end (%d untraced rounds)", res.rounds), res.endToEnd)
		if o.trace {
			printMetrics(stdout, "per-layer (traced rounds)", res.perLayer)
		}
		if o.traceOut != "" {
			if err := writeTrace(o.traceOut, res.spans); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %d spans to %s\n", len(res.spans), o.traceOut)
		}
		for _, c := range res.checks {
			fmt.Fprintf(stdout, "CHECK FAILED: %s\n", c)
		}
		if !res.correct() {
			failed = true
		} else {
			fmt.Fprintf(stdout, "checks: ok (%d attempted, %d failed)\n", res.attempted, res.failed)
		}
		line, err := json.Marshal(res.output(o.trace))
		if err != nil {
			return fmt.Errorf("encode result: %w", err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if failed {
		return errors.New("output checks failed")
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
