// Command smiless-serve runs the online serving gateway: the wall-clock
// counterpart of smiless-sim. It serves one application's DAG over HTTP,
// executing requests on a mock executor pool that honours the ground-truth
// performance model (inference latencies, cold starts, batching), while the
// selected system's controller re-plans every decision window in real time.
//
// Endpoints: POST /invoke (?deadline= bounds one request), GET /healthz,
// GET /metrics (Prometheus text), GET /statz (JSON report), GET /trace
// (Chrome trace), GET /nodes (cluster snapshot), POST /chaos/kill,
// /chaos/restart, /chaos/partition (?node=N chaos injection).
//
// Usage:
//
//	smiless-serve -app WL2 -system SMIless -sla 2 -addr :8080
//	smiless-serve -app WL1 -timescale 25 -addr :0 -addr-file /tmp/addr
//	smiless-serve -app WL2 -nodes 4 -timescale 25    # multi-node control plane
//
// SIGINT/SIGTERM drain the gateway: admission stops (503), inflight
// requests finish, then the process exits.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"smiless/internal/cliutil"
	"smiless/internal/clock"
	"smiless/internal/experiments"
	"smiless/internal/faults"
	"smiless/internal/serving"
	"smiless/internal/tracing"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	app := flag.String("app", "WL2", "application: WL1 (AMBER Alert), WL2 (Image Query), WL3 (Voice Assistant)")
	system := flag.String("system", "SMIless", "system: SMIless, Orion, IceBreaker, GrandSLAm, Aquatope, SMIless-No-DAG, SMIless-Homo (OPT cannot serve live)")
	sla := flag.Float64("sla", 2.0, "SLA in seconds")
	seed := cliutil.AddSeedFlag(flag.CommandLine)
	forecaster := cliutil.AddForecasterFlag(flag.CommandLine)
	window := flag.Float64("window", 1.0, "decision-window length in model seconds")
	linger := flag.Float64("batch-linger", 0.05, "batch aggregation window in model seconds (0 disables)")
	maxInflight := flag.Int("max-inflight", 256, "admission cap on concurrent requests (429 beyond)")
	queueCap := flag.Int("queue-cap", 1024, "per-function queue bound (429 beyond)")
	addr := flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound listen address to this file once ready")
	timescale := flag.Float64("timescale", 1, "model-time acceleration factor: N model seconds per real second")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "real-time bound on the shutdown drain")
	faultRate := flag.Float64("faults", 0, "base failure rate: init-crash prob = rate, exec-crash = 0.6*rate, straggler = rate (0 = fault-free)")
	straggler := flag.Float64("straggler", 6, "execution-time inflation factor for injected stragglers")
	nodes := flag.Int("nodes", 1, "node agents the executor pool is spread over; >1 enables locality/p2c placement and the gossip failure detector")
	gossip := flag.Float64("gossip-interval", 0, "failure-detector tick period in model seconds (0 = default 0.25; suspect after 2 ticks, down after 4)")
	deadline := flag.Float64("default-deadline", 0, "per-request end-to-end deadline in model seconds (0 = unbounded; /invoke?deadline= overrides)")
	pf := cliutil.AddPlacementFlags(flag.CommandLine)
	priceHorizon := flag.Float64("price-horizon", 3600, "model-time horizon the -price-trace scenario is generated for")
	of := cliutil.AddOutputFlags(flag.CommandLine)
	flag.Parse()

	if *timescale <= 0 {
		return fmt.Errorf("-timescale must be positive, got %v", *timescale)
	}
	application, err := cliutil.App(*app)
	if err != nil {
		return err
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
	driver, err := experiments.NewDriver(experiments.SystemName(*system), experiments.RunParams{
		App: application, SLA: *sla, Seed: *seed,
		Forecaster: *forecaster, Interference: pf.Model(),
	})
	if err != nil {
		return err
	}

	var clk clock.Scheduler
	if *timescale != 1 { //lint:allow floateq flag-default comparison: an untouched flag is bit-identical to its default
		clk = clock.NewScaledWall(*timescale)
	} else {
		clk = clock.NewWall()
	}
	pol, err := pf.Policy()
	if err != nil {
		return err
	}
	pt, err := pf.Trace(*seed, *priceHorizon, *nodes)
	if err != nil {
		return err
	}
	rec := tracing.NewRecorder(application.Graph)
	rt, err := serving.New(serving.Config{
		App: application, SLA: *sla, Window: *window, Seed: *seed,
		BatchLinger: *linger, MaxInflight: *maxInflight, QueueCap: *queueCap,
		Faults: plan, Recorder: rec, Clock: clk,
		Nodes: *nodes, GossipInterval: *gossip, DefaultDeadline: *deadline,
		Placement: pol, Interference: pf.Model(), PriceTrace: pt,
	}, driver)
	if err != nil {
		return err
	}
	rt.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("smiless-serve: system=%s app=%s sla=%gs window=%gs timescale=%gx nodes=%d listening on %s\n",
		*system, *app, *sla, *window, *timescale, *nodes, ln.Addr())

	stop := make(chan struct{})
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		fmt.Printf("smiless-serve: received %s, draining\n", sig)
		close(stop)
	}()

	gw := serving.NewGateway(rt, *system)
	serveErr := gw.Serve(&http.Server{Handler: gw}, ln, stop, *drainTimeout)

	// The runtime is closed: settle and report the run.
	st := rt.Snapshot()
	end := rt.Now()
	fmt.Println(st.Summary())
	if err := of.WriteTrace(rec, end); err != nil {
		return err
	}
	if err := of.WriteReport(*system, *app, st); err != nil {
		return err
	}
	if err := of.WriteMetrics(*system, *app, st, end); err != nil {
		return err
	}
	return serveErr
}
