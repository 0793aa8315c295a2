package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// newTransport builds the harness's HTTP transport. The stdlib default caps
// MaxIdleConnsPerHost at 2, so at any real rate every worker past the
// second dials a fresh connection per request — the classic loadgen
// ephemeral-port-exhaustion failure. The pool is instead sized to the
// worker count: each bounded in-flight worker keeps one warm connection.
func newTransport(conns int) *http.Transport {
	if conns < 2 {
		conns = 2
	}
	return &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     90 * time.Second,
		// The gateway's responses are small JSON; compression costs more
		// than it saves and perturbs latency measurement.
		DisableCompression: true,
	}
}

// newClient builds the tuned client: HTTP/1.1 keep-alive pooling sized to
// the worker count, so no request pays for a dial. No Client.Timeout:
// per-request deadlines are contexts set by the sink, so a stuck request can
// never wedge the whole run (and a soak run is not bounded by the slowest
// request ever seen).
func newClient(conns int) *http.Client {
	return &http.Client{Transport: newTransport(conns)}
}

// invokeResponse is the subset of the gateway's /invoke body the harness
// reads.
type invokeResponse struct {
	E2ESeconds  float64 `json:"e2e_seconds"`
	Failed      bool    `json:"failed"`
	SLAViolated bool    `json:"sla_violated"`
}

// httpSink fires POST {base}/invoke with a per-request deadline and
// classifies the outcome. Timeout and cancellation are distinguished from
// transport faults so the report separates "server too slow" from "network
// broke" from "operator hit ^C".
func httpSink(client *http.Client, base string, timeout time.Duration) Sink {
	url := base + "/invoke"
	return func(ctx context.Context) Outcome {
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
		if err != nil {
			return Outcome{Transport: true}
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return classifyErr(ctx)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return classifyErr(ctx)
		}
		out := Outcome{Status: resp.StatusCode}
		if resp.StatusCode != http.StatusOK {
			return out
		}
		var ir invokeResponse
		if err := json.Unmarshal(body, &ir); err != nil {
			return Outcome{Transport: true}
		}
		out.E2E = ir.E2ESeconds
		out.Failed = ir.Failed
		out.Violated = ir.SLAViolated
		return out
	}
}

// classifyErr maps a request error onto the report's failure taxonomy using
// the context state: deadline → timeout, canceled → canceled, else a real
// transport fault.
func classifyErr(ctx context.Context) Outcome {
	switch ctx.Err() {
	case context.DeadlineExceeded:
		return Outcome{Timeout: true}
	case context.Canceled:
		return Outcome{Canceled: true}
	}
	return Outcome{Transport: true}
}

// awaitReady polls {url}/healthz until it answers 200 or the timeout
// elapses. ctx aborts the wait early (SIGINT during startup).
func awaitReady(ctx context.Context, url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway at %s not ready after %v", url, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
