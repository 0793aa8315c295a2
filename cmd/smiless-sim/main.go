// Command smiless-sim runs one (application, system, workload) evaluation
// on the simulated serverless cluster and prints the run statistics.
//
// Usage:
//
//	smiless-sim -app WL2 -system SMIless -horizon 1800 -sla 2
//	smiless-sim -app WL3 -system IceBreaker -workload bursty
//	smiless-sim -app WL2 -faults 0.05                 # fault-injected run
//	smiless-sim -app WL1 -trace out.json              # Chrome/Perfetto trace
//	smiless-sim -chaos                                 # full resilience sweep
//	smiless-sim -churn                                 # SLA vs. node count under churn
//	smiless-sim -p2c -node-crash 0@300:360 -node-partition 2@600:660
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"smiless/internal/cliutil"
	"smiless/internal/experiments"
	"smiless/internal/faults"
	"smiless/internal/hardware"
	"smiless/internal/simulator"
	"smiless/internal/tracing"
)

// parseNodeFault parses "node@start:end" (seconds; end 0 or omitted means a
// crash never restarts) into a NodeFault of the given kind.
func parseNodeFault(s string, kind faults.NodeFaultKind) (faults.NodeFault, error) {
	bad := func() (faults.NodeFault, error) {
		return faults.NodeFault{}, fmt.Errorf("node fault %q: want node@start:end (e.g. 0@300:360)", s)
	}
	at := strings.SplitN(s, "@", 2)
	if len(at) != 2 {
		return bad()
	}
	node, err := strconv.Atoi(at[0])
	if err != nil {
		return bad()
	}
	window := strings.SplitN(at[1], ":", 2)
	start, err := strconv.ParseFloat(window[0], 64)
	if err != nil {
		return bad()
	}
	end := 0.0
	if len(window) == 2 && window[1] != "" {
		if end, err = strconv.ParseFloat(window[1], 64); err != nil {
			return bad()
		}
	}
	return faults.NodeFault{Node: node, Kind: kind, Start: start, End: end}, nil
}

func main() {
	app := flag.String("app", "WL2", "application: WL1 (AMBER Alert), WL2 (Image Query), WL3 (Voice Assistant)")
	system := flag.String("system", "SMIless", "system: SMIless, Orion, IceBreaker, GrandSLAm, Aquatope, OPT, SMIless-No-DAG, SMIless-Homo")
	sla := flag.Float64("sla", 2.0, "SLA in seconds")
	seed := cliutil.AddSeedFlag(flag.CommandLine)
	forecaster := cliutil.AddForecasterFlag(flag.CommandLine)
	tf := cliutil.AddTraceFlags(flag.CommandLine)
	of := cliutil.AddOutputFlags(flag.CommandLine)
	faultRate := flag.Float64("faults", 0, "base failure rate: init-crash prob = rate, exec-crash = 0.6*rate, straggler = rate (0 = fault-free)")
	straggler := flag.Float64("straggler", 6, "execution-time inflation factor for injected stragglers")
	chaos := flag.Bool("chaos", false, "run the full resilience sweep (systems x failure rates) and exit")
	churn := flag.Bool("churn", false, "run the node-churn sweep (SLA attainment vs. node count under crash/partition churn) and exit")
	p2c := flag.Bool("p2c", false, "place launches by locality with power-of-two-choices overflow (default: first-fit); shorthand for -affinity p2c")
	affinity := flag.Bool("affinity-sweep", false, "run the heterogeneous-placement sweep (placement policy vs. SLA/cost under interference) and exit")
	pf := cliutil.AddPlacementFlags(flag.CommandLine)
	var nodeFaults []faults.NodeFault
	flag.Func("node-crash", "crash node@start:end (repeatable; end 0 = never restarts); implies the gossip failure detector", func(s string) error {
		nf, err := parseNodeFault(s, faults.NodeCrash)
		nodeFaults = append(nodeFaults, nf)
		return err
	})
	flag.Func("node-partition", "partition node@start:end (repeatable); implies the gossip failure detector", func(s string) error {
		nf, err := parseNodeFault(s, faults.NodePartition)
		nodeFaults = append(nodeFaults, nf)
		return err
	})
	flag.Parse()

	if *chaos {
		p := experiments.DefaultChaosParams(*seed)
		p.App = *app
		p.SLA = *sla
		p.Forecaster = *forecaster
		if *tf.Horizon != 1800 { //lint:allow floateq flag-default comparison: an untouched flag is bit-identical to its default
			p.Horizon = *tf.Horizon
		}
		fmt.Println(experiments.Chaos(p).Table())
		return
	}
	if *churn {
		p := experiments.DefaultChurnParams(*seed)
		p.App = *app
		p.SLA = *sla
		p.Forecaster = *forecaster
		if *tf.Horizon != 1800 { //lint:allow floateq flag-default comparison: an untouched flag is bit-identical to its default
			p.Horizon = *tf.Horizon
		}
		fmt.Println(experiments.Churn(p).Table())
		return
	}

	if *affinity {
		p := experiments.DefaultAffinityParams(*seed)
		p.App = *app
		p.SLA = *sla
		p.Forecaster = *forecaster
		if *tf.Horizon != 1800 { //lint:allow floateq flag-default comparison: an untouched flag is bit-identical to its default
			p.Horizon = *tf.Horizon
		}
		if *pf.Interference > 0 {
			p.Scale = *pf.Interference
		}
		p.Spot = *pf.PriceTrace != ""
		res := experiments.Affinity(p)
		fmt.Println(res.Table())
		if !res.Dominates() {
			fatal(fmt.Errorf("affinity-aware placement did not dominate the blind baseline"))
		}
		return
	}

	if err := cliutil.ValidateForecaster(*forecaster); err != nil {
		fatal(err)
	}

	tr, err := tf.Build(*seed)
	if err != nil {
		fatal(err)
	}

	var plan *faults.Plan
	if *faultRate > 0 {
		plan = &faults.Plan{
			Default: faults.Rates{
				InitFail:        *faultRate,
				ExecFail:        0.6 * *faultRate,
				Straggler:       *faultRate,
				StragglerFactor: *straggler,
			},
			Seed: *seed,
		}
	}
	if len(nodeFaults) > 0 {
		if plan == nil {
			plan = &faults.Plan{Seed: *seed}
		}
		plan.NodeFaults = nodeFaults
	}

	application, err := cliutil.App(*app)
	if err != nil {
		fatal(err)
	}
	params := experiments.RunParams{
		App:        application,
		SLA:        *sla,
		Seed:       *seed,
		Forecaster: *forecaster,
		Faults:     plan,
	}
	pol, err := pf.Policy()
	if err != nil {
		fatal(err)
	}
	params.Placement = pol
	if *p2c {
		params.Placement = simulator.PlaceP2C
	}
	params.Interference = pf.Model()
	if params.PriceTrace, err = pf.Trace(*seed, *tf.Horizon, len(hardware.DefaultCluster().Nodes)); err != nil {
		fatal(err)
	}
	var rec *tracing.Recorder
	if *of.TraceOut != "" {
		rec = tracing.NewRecorder(params.App.Graph)
		params.Recorder = rec
	}
	st := experiments.RunSystem(experiments.SystemName(*system), params, tr)

	fmt.Printf("system=%s app=%s workload=%s requests=%d\n", *system, *app, *tf.Workload, tr.Len())
	fmt.Println(st.Summary())
	if err := of.WriteTrace(rec, *tf.Horizon); err != nil {
		fatal(err)
	}
	if err := of.WriteReport(*system, *app, st); err != nil {
		fatal(err)
	}
	if err := of.WriteMetrics(*system, *app, st, *tf.Horizon); err != nil {
		fatal(err)
	}
	fmt.Println("cost by function (descending):")
	for _, fn := range st.TopCostFunctions() {
		fmt.Printf("  %-8s $%.4f\n", fn, st.CostPerFn[fn])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
