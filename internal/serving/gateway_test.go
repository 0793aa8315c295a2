package serving

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"smiless/internal/apps"
	"smiless/internal/clock"
	"smiless/internal/controller"
	"smiless/internal/hardware"
	"smiless/internal/metrics"
	"smiless/internal/perfmodel"
	"smiless/internal/simulator"
	"smiless/internal/tracing"
)

// newControllerDriver builds a real SMIless controller over the app's
// ground-truth profiles, as the live decision loop behind the gateway.
func newControllerDriver(t *testing.T, app *apps.Application) simulator.Driver {
	t.Helper()
	profiles := app.TrueProfiles(perfmodel.DefaultUncertainty)
	return controller.New(hardware.DefaultCatalog(), profiles, 10, controller.Options{})
}

// TestGatewayEndToEnd boots the HTTP gateway on a fake-clock runtime and
// serves a 3-node pipeline end to end: a fully cold request, a batched pair,
// and a lingered partial batch. Every observed E2E latency must agree with
// the tracing critical-path attribution to within float tolerance.
func TestGatewayEndToEnd(t *testing.T) {
	app := testChain([]float64{0.1, 0.2, 0.3}, 1.0)
	fake := clock.NewFake()
	rec := tracing.NewRecorder(app.Graph)
	rt, err := New(Config{
		App: app, SLA: 10, BatchLinger: 0.25,
		Clock: fake, Recorder: rec,
	}, keepAliveDriver(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rt.Start()
	defer rt.Close()

	gw := NewGateway(rt, "static")
	srv := httptest.NewServer(gw)
	defer srv.Close()

	invoke := func() InvokeResponse {
		resp, err := http.Post(srv.URL+"/invoke", "application/json", nil)
		if err != nil {
			t.Errorf("POST /invoke: %v", err)
			return InvokeResponse{Failed: true}
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("POST /invoke status %d: %s", resp.StatusCode, body)
			return InvokeResponse{Failed: true}
		}
		var ir InvokeResponse
		if err := json.Unmarshal(body, &ir); err != nil {
			t.Errorf("decode /invoke response: %v", err)
		}
		return ir
	}

	// fire launches n concurrent invokes, waits for all of them to be
	// admitted at the current (frozen) model time, then steps the clock
	// until every request has resolved — not until the clients have read
	// their responses, which a step could overtake — and waits for them.
	fire := func(n int) []InvokeResponse {
		t.Helper()
		out := make([]InvokeResponse, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				out[i] = invoke()
			}(i)
		}
		// Admission happens inline in Invoke, so once Inflight reaches n
		// all requests share one arrival timestamp.
		waitForReal(t, func() bool { return rt.Inflight() == n })
		stepUntil(t, rt, fake, func() bool { return rt.Inflight() == 0 })
		wg.Wait()
		return out
	}

	// Phase A — fully cold request: three sequential cold starts.
	cold := fire(1)[0]
	if want := 3*1.0 + 0.6; !near(cold.E2ESeconds, want, 1e-9) {
		t.Errorf("cold E2E = %v, want %v", cold.E2ESeconds, want)
	}
	if cold.Failed || cold.SLAViolated {
		t.Errorf("cold request flags: %+v", cold)
	}

	// Phase B — batched window: two requests admitted at the same model
	// time fill the Batch=2 directive at every stage and ride one
	// execution each; no linger, no cold start.
	pair := fire(2)
	for _, r := range pair {
		if want := 0.6; !near(r.E2ESeconds, want, 1e-9) {
			t.Errorf("batched E2E = %v, want %v", r.E2ESeconds, want)
		}
	}

	// Phase C — a lone request against warm instances waits out the 0.25s
	// aggregation window at each of the three stages.
	lone := fire(1)[0]
	if want := 3*0.25 + 0.6; !near(lone.E2ESeconds, want, 1e-9) {
		t.Errorf("lingered E2E = %v, want %v", lone.E2ESeconds, want)
	}

	// Critical-path parity: every recorded breakdown must reconcile its
	// phase attribution with the measured end-to-end latency, and the
	// breakdown E2Es must match the HTTP-observed ones.
	rt.mu.Lock()
	bds := append([]tracing.Breakdown(nil), rec.Breakdowns()...)
	rt.mu.Unlock()
	if len(bds) != 4 {
		t.Fatalf("breakdowns = %d, want 4", len(bds))
	}
	seen := map[int]float64{}
	for _, bd := range bds {
		if !near(bd.PhaseSum(), bd.E2E, 1e-6) {
			t.Errorf("req %d: phase sum %v != E2E %v", bd.Req, bd.PhaseSum(), bd.E2E)
		}
		seen[bd.Req] = bd.E2E
	}
	for _, r := range append([]InvokeResponse{cold, lone}, pair...) {
		if got, ok := seen[r.Request]; !ok || !near(got, r.E2ESeconds, 1e-9) {
			t.Errorf("req %d: trace E2E %v (found=%v) != gateway E2E %v",
				r.Request, got, ok, r.E2ESeconds)
		}
	}
	// The lingered request's on-path queueing must show the three
	// aggregation windows.
	if bd := bds[len(bds)-1]; !near(bd.Phases[tracing.PhaseQueue]+bd.Phases[tracing.PhaseBatchWait], 0.75, 1e-9) {
		t.Errorf("lingered on-path queue time = %v, want 0.75",
			bd.Phases[tracing.PhaseQueue]+bd.Phases[tracing.PhaseBatchWait])
	}

	// /healthz — live and not draining.
	var health HealthResponse
	getJSON(t, srv.URL+"/healthz", http.StatusOK, &health)
	if health.Status != "ok" || health.App != "test-chain" || health.Inflight != 0 {
		t.Errorf("healthz = %+v", health)
	}

	// /metrics — well-formed Prometheus text with the right counters.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	store, err := metrics.ParseText(bytes.NewReader(mbody))
	if err != nil {
		t.Fatalf("metrics not parseable: %v\n%s", err, mbody)
	}
	if got := store.SumValues("smiless_requests_completed_total", nil); got != 4 {
		t.Errorf("smiless_requests_completed_total = %v, want 4", got)
	}
	if got := store.SumValues("smiless_container_inits_total", nil); got != 3 {
		t.Errorf("smiless_container_inits_total = %v, want 3", got)
	}
	if got := store.SumValues("smiless_gateway_rejected_total", nil); got != 0 {
		t.Errorf("smiless_gateway_rejected_total = %v, want 0", got)
	}

	// /statz — the simulator-comparable report.
	var rep simulator.Report
	getJSON(t, srv.URL+"/statz", http.StatusOK, &rep)
	if rep.Requests != 4 || rep.System != "static" || rep.ViolationRate != 0 {
		t.Errorf("statz = %+v", rep)
	}

	// /trace — Chrome trace JSON from the live run.
	tresp, err := http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatalf("GET /trace: %v", err)
	}
	tbody, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK || !json.Valid(tbody) {
		t.Errorf("/trace status %d, valid JSON %v", tresp.StatusCode, json.Valid(tbody))
	}

	// Graceful drain: no inflight work, so Drain resolves immediately;
	// afterwards the gateway refuses new work with 503s.
	if err := rt.Drain(time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	getJSON(t, srv.URL+"/healthz", http.StatusServiceUnavailable, &health)
	if health.Status != "draining" {
		t.Errorf("healthz status = %q, want draining", health.Status)
	}
	dresp, err := http.Post(srv.URL+"/invoke", "application/json", nil)
	if err != nil {
		t.Fatalf("POST /invoke while draining: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("invoke while draining status = %d, want 503", dresp.StatusCode)
	}
}

// TestGatewayOverloadReturns429 fills the inflight cap and verifies the
// backpressure path.
func TestGatewayOverloadReturns429(t *testing.T) {
	app := testChain([]float64{0.5}, 1.0)
	fake := clock.NewFake()
	rt, err := New(Config{App: app, SLA: 10, MaxInflight: 1, Clock: fake}, keepAliveDriver(1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rt.Start()
	defer rt.Close()
	srv := httptest.NewServer(NewGateway(rt, "static"))
	defer srv.Close()

	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/invoke", "application/json", nil)
		if err != nil {
			first <- 0
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	waitForReal(t, func() bool { return rt.Inflight() == 1 })

	resp, err := http.Post(srv.URL+"/invoke", "application/json", nil)
	if err != nil {
		t.Fatalf("POST /invoke: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overloaded invoke status = %d, want 429", resp.StatusCode)
	}
	// Backpressure must carry a retry hint: one decision window (1s here).
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("429 Retry-After = %q, want \"1\"", got)
	}

	stepUntil(t, rt, fake, func() bool { return rt.Inflight() == 0 })
	if code := <-first; code != http.StatusOK {
		t.Errorf("first invoke status = %d, want 200", code)
	}
	if got := rt.Rejected(); got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}
}

// TestGatewayNodesAndChaos exercises the cluster admin surface: the /nodes
// snapshot and the chaos endpoints that kill, restart and partition node
// agents, plus the ?deadline= knob on /invoke.
func TestGatewayNodesAndChaos(t *testing.T) {
	app := testChain([]float64{5.0}, 1.0)
	fake := clock.NewFake()
	rt, err := New(Config{App: app, SLA: 30, Cluster: hardware.UnboundedCluster(3), Placement: simulator.PlaceP2C, Clock: fake}, keepAliveDriver(1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rt.Start()
	defer rt.Close()
	srv := httptest.NewServer(NewGateway(rt, "static"))
	defer srv.Close()

	post := func(path string, want int) []NodeInfo {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", nil)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("POST %s status = %d, want %d: %s", path, resp.StatusCode, want, body)
		}
		var infos []NodeInfo
		if want == http.StatusOK {
			if err := json.Unmarshal(body, &infos); err != nil {
				t.Fatalf("POST %s decode: %v", path, err)
			}
		}
		return infos
	}

	var infos []NodeInfo
	getJSON(t, srv.URL+"/nodes", http.StatusOK, &infos)
	if len(infos) != 3 {
		t.Fatalf("/nodes returned %d entries, want 3", len(infos))
	}
	for i, n := range infos {
		if n.ID != i || n.Health != "up" || !n.Alive || n.Partitioned {
			t.Errorf("node %d = %+v, want healthy", i, n)
		}
	}

	if got := post("/chaos/kill?node=1", http.StatusOK); got[1].Alive {
		t.Error("node 1 still alive after /chaos/kill")
	}
	if got := post("/chaos/restart?node=1", http.StatusOK); !got[1].Alive {
		t.Error("node 1 still dead after /chaos/restart")
	}
	if got := post("/chaos/partition?node=2", http.StatusOK); !got[2].Partitioned {
		t.Error("node 2 not partitioned after /chaos/partition")
	}
	if got := post("/chaos/partition?node=2&healed=1", http.StatusOK); got[2].Partitioned {
		t.Error("node 2 still partitioned after heal")
	}
	post("/chaos/kill?node=9", http.StatusBadRequest)
	post("/chaos/kill?node=x", http.StatusBadRequest)
	if resp, err := http.Get(srv.URL + "/chaos/kill?node=0"); err != nil {
		t.Fatalf("GET /chaos/kill: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /chaos/kill status = %d, want 405", resp.StatusCode)
		}
	}

	// ?deadline= bounds the request end to end: the 6s pipeline against a 2s
	// budget must come back DeadlineExceeded once the clock reaches t=2.
	resCh := make(chan InvokeResponse, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/invoke?deadline=2", "application/json", nil)
		if err != nil {
			t.Errorf("POST /invoke?deadline=2: %v", err)
			resCh <- InvokeResponse{}
			return
		}
		defer resp.Body.Close()
		var ir InvokeResponse
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Errorf("decode: %v", err)
		}
		resCh <- ir
	}()
	waitForReal(t, func() bool { return rt.Inflight() == 1 })
	var ir InvokeResponse
	gotRes := false
	stepUntil(t, rt, fake, func() bool {
		select {
		case ir = <-resCh:
			gotRes = true
		default:
		}
		return gotRes
	})
	if !ir.Failed || !ir.DeadlineExceeded {
		t.Errorf("deadline-bounded invoke = %+v, want Failed+DeadlineExceeded", ir)
	}
	if !near(ir.E2ESeconds, 2.0, 1e-9) {
		t.Errorf("deadline-bounded E2E = %v, want 2.0", ir.E2ESeconds)
	}
	dresp, err := http.Post(srv.URL+"/invoke?deadline=-1", "application/json", nil)
	if err != nil {
		t.Fatalf("POST /invoke?deadline=-1: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative deadline status = %d, want 400", dresp.StatusCode)
	}
}

// TestGatewayWithController runs the real SMIless controller as the driver
// behind the gateway: requests must complete and the decision loop must not
// interfere with serving.
func TestGatewayWithController(t *testing.T) {
	app := testChain([]float64{0.1, 0.2, 0.3}, 0.5)
	fake := clock.NewFake()
	driver := newControllerDriver(t, app)
	rt, err := New(Config{App: app, SLA: 10, Clock: fake}, driver)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rt.Start()
	defer rt.Close()
	srv := httptest.NewServer(NewGateway(rt, driver.Name()))
	defer srv.Close()

	var results []InvokeResponse
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/invoke", "application/json", nil)
			if err != nil {
				t.Errorf("POST: %v", err)
				return
			}
			defer resp.Body.Close()
			var ir InvokeResponse
			if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
				t.Errorf("decode: %v", err)
				return
			}
			mu.Lock()
			results = append(results, ir)
			mu.Unlock()
		}()
		waitForReal(t, func() bool { return rt.Inflight() > 0 || countDone(&mu, &results) > i })
		// Space arrivals one window apart so the controller observes a
		// live arrival history.
		stepUntil(t, rt, fake, func() bool { return countDone(&mu, &results) > i || rt.Quiesced() })
		target := fake.Now() + 1.1
		stepUntil(t, rt, fake, func() bool { return fake.Now() >= target })
	}
	stepUntil(t, rt, fake, func() bool { return rt.Inflight() == 0 })
	wg.Wait()
	for _, r := range results {
		if r.Failed {
			t.Errorf("request %d failed under controller", r.Request)
		}
		if r.E2ESeconds <= 0 {
			t.Errorf("request %d has non-positive E2E %v", r.Request, r.E2ESeconds)
		}
	}
	if got := rt.Snapshot().Completed; got != 3 {
		t.Errorf("Completed = %d, want 3", got)
	}
}

func countDone(mu *sync.Mutex, rs *[]InvokeResponse) int {
	mu.Lock()
	defer mu.Unlock()
	return len(*rs)
}

// waitForReal polls cond in real time (never advancing the fake clock).
func waitForReal(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("waitForReal: condition not reached")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func getJSON(t *testing.T, url string, wantCode int, v interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s status = %d, want %d: %s", url, resp.StatusCode, wantCode, body)
	}
	if !strings.Contains(resp.Header.Get("Content-Type"), "application/json") {
		t.Errorf("GET %s content-type = %q", url, resp.Header.Get("Content-Type"))
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s decode: %v\n%s", url, err, body)
	}
}
