// Command loadgen replays a workload trace against a running smiless-serve
// gateway and prints an end-to-end latency / SLA report comparable to the
// simulator's. Arrivals are open-loop: each request fires at its trace
// timestamp regardless of earlier responses, so queueing at the gateway is
// measured rather than masked.
//
// The pacer is sharded (-shards): each shard owns a stride of the arrival
// schedule and sleeps-then-spins (-spin) to its own due instants, so the
// achievable rate is bounded by the machine, not by one goroutine's timer
// granularity — 100k+ paced req/s against a local sink. A bounded worker
// pool (-max-inflight) fires the requests over a keep-alive connection pool
// sized to match; when the pool saturates, the overflow is charged to the
// per-request send-lag histogram (intended vs. actual send instant), so
// coordinated omission is reported, not hidden. Latency and lag are
// recorded in HDR-style log-bucketed histograms with <=0.4% relative error
// and constant memory at any request count.
//
// Usage:
//
//	loadgen -url http://localhost:8080 -workload poisson -rate 2 -horizon 60
//	loadgen -url http://localhost:8080 -requests 200 -timescale 25 -check-metrics
//	loadgen -url http://localhost:8080 -workload const -rate 1000 -horizon 60 -soak 30m
//
// SIGINT/SIGTERM cancel the run gracefully: pacing stops, in-flight
// requests abort and are reported as canceled, and the report covers
// everything that happened. The exit status is non-zero if any request hit
// a transport error, timeout, or unexpected 5xx, or if -check-metrics finds
// the /metrics scrape malformed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"smiless/internal/cliutil"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	url := flag.String("url", "http://localhost:8080", "gateway base URL")
	tf := cliutil.AddTraceFlags(flag.CommandLine)
	seed := cliutil.AddSeedFlag(flag.CommandLine)
	requests := flag.Int("requests", 0, "cap on replayed requests per cycle (0 = whole trace)")
	timescale := flag.Float64("timescale", 1, "replay acceleration factor; must match the gateway's -timescale")
	shards := flag.Int("shards", 0, "pacer goroutines, each owning a stride of the schedule (0 = GOMAXPROCS)")
	maxInflight := flag.Int("max-inflight", 256, "bounded in-flight request workers; also sizes the keep-alive connection pool")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline (0 = unbounded); expiries are reported as timeouts, not transport errors")
	spin := flag.Duration("spin", 100*time.Microsecond, "busy-wait window before each due instant; 0 sleeps all the way (coarser pacing, less CPU)")
	soak := flag.Duration("soak", 0, "replay the trace back to back for at least this wall duration (0 = one pass)")
	progress := flag.Duration("progress", 10*time.Second, "soak-mode progress line interval")
	ready := flag.Duration("ready-timeout", 10*time.Second, "how long to wait for the gateway /healthz to come up")
	checkMetrics := flag.Bool("check-metrics", false, "after the run, scrape /metrics and fail unless it parses and covers the replayed load")
	requireClean := flag.Bool("require-clean", false, "also exit non-zero on any 429, failed request, or non-200 response (chaos smoke: every request must resolve cleanly)")
	jsonOut := flag.String("json", "", "also write the replay report as JSON to this file")
	flag.Parse()

	if *timescale <= 0 {
		return fmt.Errorf("-timescale must be positive, got %v", *timescale)
	}
	tr, err := tf.Build(*seed)
	if err != nil {
		return err
	}
	arrivals := tr.Arrivals
	if *requests > 0 && len(arrivals) > *requests {
		arrivals = arrivals[:*requests]
	}
	if len(arrivals) == 0 {
		return fmt.Errorf("trace %q produced no arrivals", *tf.Workload)
	}
	cycles := 1
	if *soak > 0 {
		cycleWall := tr.Horizon / *timescale
		if cycleWall <= 0 {
			return fmt.Errorf("-soak needs a trace with a positive horizon")
		}
		for float64(cycles)*cycleWall < soak.Seconds() {
			cycles++
		}
	}

	client := newClient(*maxInflight)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := awaitReady(ctx, *url, *ready); err != nil {
		return err
	}
	fmt.Printf("loadgen: replaying %d %s arrivals x%d against %s at %gx\n",
		len(arrivals), *tf.Workload, cycles, *url, *timescale)

	eng := NewEngine(EngineConfig{
		Arrivals:  arrivals,
		Timescale: *timescale,
		Cycles:    cycles,
		CycleLen:  tr.Horizon,
		Shards:    *shards,
		Workers:   *maxInflight,
		Spin:      *spin,
		Sink:      httpSink(client, *url, *timeout),
		Progress: func(sent, done int64) {
			fmt.Printf("loadgen: sent=%d resolved=%d inflight=%d\n", sent, done, sent-done)
		},
		ProgressEvery: *progress,
	})
	rep := eng.Run(ctx)
	interrupted := ctx.Err() != nil
	stop()

	fmt.Print(rep.Text())
	if *jsonOut != "" {
		if err := writeJSONReport(*jsonOut, rep); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", *jsonOut)
	}

	if *checkMetrics {
		if err := verifyMetrics(*url, rep); err != nil {
			return fmt.Errorf("metrics check: %w", err)
		}
		fmt.Println("metrics check: ok")
	}
	if interrupted {
		return fmt.Errorf("interrupted: %d unsent, %d canceled in flight", rep.Unsent, rep.Canceled)
	}
	if rep.TransportErrors > 0 || rep.ServerErrors > 0 || rep.Timeouts > 0 {
		return fmt.Errorf("%d transport errors, %d 5xx responses, %d timeouts",
			rep.TransportErrors, rep.ServerErrors, rep.Timeouts)
	}
	if *requireClean && rep.Completed != rep.Requests {
		return fmt.Errorf("-require-clean: %d/%d requests completed (%d failed, %d rejected)",
			rep.Completed, rep.Requests, rep.Failed, rep.Rejected)
	}
	return nil
}

func writeJSONReport(path string, rep Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
