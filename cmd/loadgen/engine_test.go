package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"sync/atomic"
	"testing"
	"time"
)

// fakeGateway is an in-process stand-in for smiless-serve: it answers
// /invoke with a canned InvokeResponse after an optional handler delay.
func fakeGateway(delay time.Duration, resp invokeResponse) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if delay > 0 {
			time.Sleep(delay)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]interface{}{
			"e2e_seconds":  resp.E2ESeconds,
			"failed":       resp.Failed,
			"sla_violated": resp.SLAViolated,
		})
	}))
}

func runEngine(t *testing.T, cfg EngineConfig) Report {
	t.Helper()
	return NewEngine(cfg).Run(context.Background())
}

// TestEndToEndSendLagUnderSlowSink drives a paced schedule into a
// deliberately slow fake gateway through a single bounded worker. The
// worker serializes the sends, so each successive request leaves later than
// intended — the send-lag histogram must surface that backlog instead of
// hiding it (coordinated omission).
func TestEndToEndSendLagUnderSlowSink(t *testing.T) {
	const delay = 150 * time.Millisecond
	srv := fakeGateway(delay, invokeResponse{E2ESeconds: 0.42})
	defer srv.Close()
	client := newClient(1)
	rep := runEngine(t, EngineConfig{
		Arrivals:  []float64{0, 0.01, 0.02, 0.03},
		Timescale: 1,
		Shards:    1,
		Workers:   1, // serialize: every request behind the first is late
		Sink:      httpSink(client, srv.URL, 0),
	})
	if rep.Completed != 4 || rep.TransportErrors != 0 {
		t.Fatalf("completed=%d transport=%d, want 4/0:\n%s", rep.Completed, rep.TransportErrors, rep.Text())
	}
	if rep.LatencyMax != 0.42 {
		t.Fatalf("latency max = %v, want the gateway-reported 0.42", rep.LatencyMax)
	}
	// Request 4 cannot leave before three 150ms responses have resolved:
	// its lag is at least 3*delay minus its own 30ms schedule offset.
	wantMin := (3*delay - 30*time.Millisecond).Seconds()
	if rep.SendLagMax < wantMin {
		t.Fatalf("send lag max = %vs under a %v sink, want >= %vs:\n%s",
			rep.SendLagMax, delay, wantMin, rep.Text())
	}
	if rep.SendLagMean <= 0 || rep.SendLagP99 < rep.SendLagP50 {
		t.Fatalf("lag distribution not accounted: mean=%v p50=%v p99=%v",
			rep.SendLagMean, rep.SendLagP50, rep.SendLagP99)
	}
}

// TestTimeoutsAreCountedDistinctly pins the fix for the original loadgen
// hang: a stuck request used to block wg.Wait() forever because the client
// had no deadline. Now it resolves as a timeout, in its own counter.
func TestTimeoutsAreCountedDistinctly(t *testing.T) {
	srv := fakeGateway(500*time.Millisecond, invokeResponse{})
	defer srv.Close()
	client := newClient(4)
	done := make(chan Report, 1)
	go func() {
		done <- runEngine(t, EngineConfig{
			Arrivals: []float64{0, 0, 0}, Timescale: 1, Shards: 1, Workers: 3,
			Sink: httpSink(client, srv.URL, 50*time.Millisecond),
		})
	}()
	var rep Report
	select {
	case rep = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("engine hung on a slow server despite per-request timeouts")
	}
	if rep.Timeouts != 3 || rep.Completed != 0 || rep.TransportErrors != 0 {
		t.Fatalf("timeouts/completed/transport = %d/%d/%d, want 3/0/0:\n%s",
			rep.Timeouts, rep.Completed, rep.TransportErrors, rep.Text())
	}
}

// TestCancellationStopsPacing covers SIGINT propagation: canceling the run
// context stops the pacer promptly, reports unsent arrivals, and aborted
// in-flight requests land in the canceled column, never as transport noise.
func TestCancellationStopsPacing(t *testing.T) {
	srv := fakeGateway(200*time.Millisecond, invokeResponse{})
	defer srv.Close()
	client := newClient(2)
	// 10k arrivals over 100s: the run can only finish early via cancel.
	arrivals := make([]float64, 10000)
	for i := range arrivals {
		arrivals[i] = float64(i) / 100
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(250*time.Millisecond, cancel)
	start := time.Now()
	rep := NewEngine(EngineConfig{
		Arrivals: arrivals, Timescale: 1, Shards: 2, Workers: 2,
		Sink: httpSink(client, srv.URL, 0),
	}).Run(ctx)
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("cancel took %v to unwind", took)
	}
	if rep.Unsent < 9000 {
		t.Fatalf("unsent = %d, want nearly all of the 10k schedule:\n%s", rep.Unsent, rep.Text())
	}
	if rep.TransportErrors != 0 {
		t.Fatalf("cancellation misclassified as %d transport errors:\n%s", rep.TransportErrors, rep.Text())
	}
}

// TestConnectionsAreReused asserts the tuned transport actually pools:
// across many sequentially-completing requests the client must dial at most
// one connection per worker, with every later request riding a warm one.
// The stdlib default transport (MaxIdleConnsPerHost=2) fails this test at
// workers > 2 by dialing per request.
func TestConnectionsAreReused(t *testing.T) {
	srv := fakeGateway(0, invokeResponse{})
	defer srv.Close()
	const workers, requests = 4, 80
	client := newClient(workers)
	var dials, reused atomic.Int64
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		ConnectStart: func(network, addr string) { dials.Add(1) },
		GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				reused.Add(1)
			}
		},
	})
	arrivals := make([]float64, requests)
	for i := range arrivals {
		arrivals[i] = float64(i) / 1000
	}
	rep := NewEngine(EngineConfig{
		Arrivals: arrivals, Timescale: 1, Shards: 1, Workers: workers,
		Sink: httpSink(client, srv.URL, time.Second),
	}).Run(ctx)
	if rep.Completed != requests {
		t.Fatalf("completed = %d, want %d:\n%s", rep.Completed, requests, rep.Text())
	}
	if d := dials.Load(); d > workers {
		t.Fatalf("dialed %d connections for %d requests across %d workers: transport not pooling", d, requests, workers)
	}
	if r := reused.Load(); r < requests-workers {
		t.Fatalf("only %d of %d requests reused a connection", r, requests)
	}
}

// TestPacerSustains100kRPS is the harness's rate floor: a 150k req/s
// constant schedule against a null in-process sink must achieve >= 100k
// req/s with bounded send lag. Skipped under -short and -race (the race
// runtime serializes enough to make pacing numbers meaningless).
func TestPacerSustains100kRPS(t *testing.T) {
	if testing.Short() {
		t.Skip("pacing rate floor needs full speed; skipped in -short")
	}
	if raceEnabled {
		t.Skip("pacing rate floor is not meaningful under the race runtime")
	}
	const rate, n = 150000.0, 150000
	arrivals := make([]float64, n)
	for i := range arrivals {
		arrivals[i] = float64(i) / rate
	}
	nullSink := func(ctx context.Context) Outcome {
		return Outcome{Status: 200, E2E: 0.001}
	}
	rep := runEngine(t, EngineConfig{
		Arrivals: arrivals, Timescale: 1, Workers: 64,
		Spin: 100 * time.Microsecond, Sink: nullSink,
	})
	if rep.Completed != n {
		t.Fatalf("completed = %d, want %d:\n%s", rep.Completed, n, rep.Text())
	}
	if rep.AchievedRPS < 100000 {
		t.Fatalf("achieved %.0f req/s, want >= 100000:\n%s", rep.AchievedRPS, rep.Text())
	}
	if rep.SendLagP99 <= 0 || rep.SendLagP99 > 0.25 {
		t.Fatalf("send lag p99 = %vs, want reported and bounded by 0.25s:\n%s", rep.SendLagP99, rep.Text())
	}
}
