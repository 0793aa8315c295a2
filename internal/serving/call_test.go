package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"smiless/internal/apps"
	"smiless/internal/dag"
)

// zeroDiamond is a four-function diamond (A → B, C → D) whose functions
// execute and cold-start instantly: a request's whole cost is the runtime's.
func zeroDiamond() *apps.Application {
	g := dag.New()
	specs := map[dag.NodeID]*apps.FunctionSpec{}
	for _, id := range []dag.NodeID{"A", "B", "C", "D"} {
		g.MustAddNode(id, "test")
		specs[id] = &apps.FunctionSpec{Name: string(id), Model: "test", Field: "test"}
	}
	g.MustAddEdge("A", "B")
	g.MustAddEdge("A", "C")
	g.MustAddEdge("B", "D")
	g.MustAddEdge("C", "D")
	return &apps.Application{Name: "zero-diamond", Graph: g, Specs: specs}
}

// newWallRuntime starts a wall-clock runtime serving zeroDiamond.
func newWallRuntime(t *testing.T) *Runtime {
	t.Helper()
	rt, err := New(Config{App: zeroDiamond(), SLA: 10, MaxInflight: 4096}, keepAliveDriver(1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rt.Start()
	t.Cleanup(rt.Close)
	return rt
}

// Invoke and one receive allocate nothing at steady state: the waiter slot,
// its result channel and the engine's request are all reused. Growth of the
// run logs is amortised over thousands of requests, well under one each.
func TestInvokeAllocatesNothing(t *testing.T) {
	if allocsInstrumented {
		t.Skip("race and invariant builds allocate inside instrumentation")
	}
	rt := newWallRuntime(t)
	ctx := context.Background()
	request := func() {
		ch, err := rt.Invoke(ctx)
		if err != nil {
			t.Fatalf("Invoke: %v", err)
		}
		if res := <-ch; res.Failed {
			t.Fatalf("request failed: %+v", res)
		}
	}
	for i := 0; i < 2000; i++ { // cold starts, then every buffer at its high-water mark
		request()
	}
	if allocs := testing.AllocsPerRun(2000, request); allocs > 0 {
		t.Errorf("%v allocations per request at steady state, want 0", allocs)
	}
}

// nullWriter is a reusable ResponseWriter that discards the body.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) WriteHeader(int)             {}
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// The /invoke handler adds no allocation of its own to a request: Call
// registers nothing on the (cancellable) request context, and the answer is
// encoded through pooled state under a shared Content-Type.
func TestGatewayInvokeAllocations(t *testing.T) {
	if allocsInstrumented {
		t.Skip("race and invariant builds allocate inside instrumentation")
	}
	rt := newWallRuntime(t)
	g := NewGateway(rt, "static")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/invoke", nil).WithContext(ctx)
	w := &nullWriter{h: http.Header{}}
	request := func() { g.handleInvoke(w, req) }
	for i := 0; i < 2000; i++ {
		request()
	}
	if allocs := testing.AllocsPerRun(2000, request); allocs > 0 {
		t.Errorf("%v allocations per /invoke request at steady state, want 0", allocs)
	}
	if st := rt.Snapshot(); st.Completed != 4001 || st.FailedInvocations != 0 {
		t.Errorf("completed %d failed %d of 4001 requests", st.Completed, st.FailedInvocations)
	}
}

// A Result left unread keeps its channel: the next request in that slot gets
// a fresh channel and its own Result, and the old channel still holds the
// first Result alone. A received channel is handed out again.
func TestUnreadResultIsNotRecycled(t *testing.T) {
	rt, fake := newTestRuntime(t, Config{App: testChain([]float64{0.5}, 1.0), SLA: 10, MaxInflight: 1}, keepAliveDriver(1))
	first := mustInvoke(t, rt)
	stepUntil(t, rt, fake, func() bool { return len(first) == 1 })
	second := mustInvoke(t, rt) // MaxInflight 1: the same waiter slot
	if second == first {
		t.Fatal("the slot handed out a channel whose Result was never received")
	}
	res2 := await(t, rt, fake, second)
	if len(first) != 1 {
		t.Fatalf("the unread channel holds %d Results, want 1", len(first))
	}
	res1 := <-first
	if res1.Failed || res2.Failed || res1.ReqID == res2.ReqID {
		t.Errorf("Results %+v and %+v: want two completed requests", res1, res2)
	}
	if third := mustInvoke(t, rt); third != second {
		t.Error("a received channel was not reused by the slot's next request")
	}
}

// A Call whose context ends abandons its request: Failed+Abandoned, the
// admission slot freed, Abandoned counted once. Once the runtime is closed
// no request resolves, and a Call whose context then ends returns ErrClosed
// instead of blocking.
func TestCallAbandonsOnCancel(t *testing.T) {
	cfg := nodeChainConfig(1, nil)
	cfg.MaxInflight = 1
	rt, fake := newTestRuntime(t, cfg, keepAliveDriver(1))

	type answer struct {
		res Result
		err error
	}
	call := func(ctx context.Context) <-chan answer {
		out := make(chan answer, 1)
		go func() {
			res, err := rt.Call(ctx, 0)
			out <- answer{res, err}
		}()
		waitForReal(t, func() bool { return rt.Inflight() == 1 })
		return out
	}
	recv := func(ch <-chan answer) answer {
		t.Helper()
		select {
		case a := <-ch:
			return a
		case <-time.After(5 * time.Second):
			t.Fatal("Call did not return after its context ended")
			return answer{}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	pending := call(ctx)
	if _, err := rt.Call(context.Background(), 0); err != ErrOverloaded {
		t.Fatalf("second Call err = %v, want ErrOverloaded", err)
	}
	cancel()
	if a := recv(pending); a.err != nil || !a.res.Failed || !a.res.Abandoned || a.res.DeadlineExceeded {
		t.Errorf("cancelled Call = %+v, %v; want Failed+Abandoned, no error", a.res, a.err)
	}
	if got := rt.Inflight(); got != 0 {
		t.Errorf("Inflight = %d after the abandoned Call, want 0", got)
	}
	ch := mustInvoke(t, rt)
	if res := await(t, rt, fake, ch); res.Failed {
		t.Errorf("request after the abandon = %+v, want success", res)
	}
	if got := rt.Snapshot().Abandoned; got != 1 {
		t.Errorf("stats.Abandoned = %d, want 1", got)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	pending = call(ctx)
	rt.Close()
	cancel()
	if a := recv(pending); a.err != ErrClosed {
		t.Errorf("Call cancelled after Close = %+v, %v; want ErrClosed", a.res, a.err)
	}
}

// TestInvokeWireFormat pins POST /invoke's body for each outcome to
// json.Marshal of the expected InvokeResponse plus a newline, byte for byte,
// and its Content-Type: loadgen and the benchmark client parse this body.
func TestInvokeWireFormat(t *testing.T) {
	// One function, cold start 1 s, execution 0.5 s; every request arrives at
	// 0.125 s, so a completed one ends at 1.625 s.
	cases := []struct {
		name   string
		sla    float64
		query  string
		cancel bool
		want   InvokeResponse
	}{
		{"completed", 10, "", false, InvokeResponse{ArrivalSeconds: 0.125, E2ESeconds: 1.5}},
		{"sla-violated", 1, "", false, InvokeResponse{ArrivalSeconds: 0.125, E2ESeconds: 1.5, SLAViolated: true}},
		{"deadline-exceeded", 10, "?deadline=0.25", false, InvokeResponse{ArrivalSeconds: 0.125, E2ESeconds: 0.25, Failed: true, DeadlineExceeded: true}},
		{"abandoned", 10, "", true, InvokeResponse{ArrivalSeconds: 0.125, Failed: true, Abandoned: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rt, fake := newTestRuntime(t, Config{App: testChain([]float64{0.5}, 1.0), SLA: c.sla}, keepAliveDriver(1))
			stepTo(t, rt, fake, 0.125)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rec := httptest.NewRecorder()
			done := make(chan struct{})
			go func() {
				defer close(done)
				NewGateway(rt, "static").ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/invoke"+c.query, nil).WithContext(ctx))
			}()
			waitForReal(t, func() bool { return rt.Inflight() == 1 })
			if c.cancel {
				cancel()
				<-done
			} else {
				stepUntil(t, rt, fake, func() bool {
					select {
					case <-done:
						return true
					default:
						return false
					}
				})
			}
			want, err := json.Marshal(c.want)
			if err != nil {
				t.Fatal(err)
			}
			if got := rec.Body.Bytes(); !bytes.Equal(got, append(want, '\n')) {
				t.Errorf("body = %q, want %q", got, append(want, '\n'))
			}
			if got := rec.Header().Values("Content-Type"); len(got) != 1 || got[0] != "application/json" {
				t.Errorf("Content-Type = %q, want [application/json]", got)
			}
			if rec.Code != http.StatusOK {
				t.Errorf("status = %d, want 200", rec.Code)
			}
		})
	}
}
