package serving

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"testing"
	"time"

	"smiless/internal/clock"
	"smiless/internal/hardware"
	"smiless/internal/simulator"
)

// chaosPaths are the node-admin endpoints FuzzGatewayQuery drives.
var chaosPaths = [...]string{"/chaos/kill", "/chaos/restart", "/chaos/partition"}

// FuzzGatewayQuery throws arbitrary query strings at the gateway's parsers —
// ?node=&healed= on a chaos endpoint, then ?deadline= on /invoke — against a
// three-node runtime on a fake clock. Whatever the input, nothing panics and
// nothing answers 5xx; a malformed node or deadline is a 400, a well-formed
// one is served (the invoke answers 200 once the clock has run it to an
// outcome); and once drained no admission slot is left taken.
func FuzzGatewayQuery(f *testing.F) {
	for _, seed := range []struct {
		chaos           uint8
		chaosQ, invokeQ string
	}{
		{0, "node=1", "deadline=2"},
		{1, "node=1", ""},
		{2, "node=2", "deadline=0.5"},
		{2, "node=0&healed=1", "deadline=NaN"},
		{0, "node=x", "deadline=Inf"},
		{0, "node=9", "deadline=-1"},
		{1, "node=-1", "deadline=1e400"},
		{2, "node=1&healed=", "deadline=+Inf&deadline=3"},
		{0, "node=%zz", "deadline=1e-300;x"},
	} {
		f.Add(seed.chaos, seed.chaosQ, seed.invokeQ)
	}
	f.Fuzz(func(t *testing.T, chaos uint8, chaosQ, invokeQ string) {
		fake := clock.NewFake()
		rt, err := New(Config{App: testChain([]float64{0.5}, 0.25), SLA: 10, Cluster: hardware.UnboundedCluster(3), Placement: simulator.PlaceP2C, Clock: fake}, keepAliveDriver(1))
		if err != nil {
			t.Fatal(err)
		}
		rt.Start()
		defer rt.Close()
		gw := NewGateway(rt, "fuzz")
		post := func(path, rawQuery string) *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, path, nil)
			req.URL.RawQuery = rawQuery
			w := httptest.NewRecorder()
			gw.ServeHTTP(w, req)
			return w
		}
		query := func(raw string) url.Values { return (&url.URL{RawQuery: raw}).Query() }

		node, err := strconv.Atoi(query(chaosQ).Get("node"))
		want := http.StatusOK
		if err != nil || node < 0 || node >= 3 {
			want = http.StatusBadRequest
		}
		if w := post(chaosPaths[int(chaos)%len(chaosPaths)], chaosQ); w.Code != want {
			t.Fatalf("chaos ?%s answered %d, want %d: %s", chaosQ, w.Code, want, w.Body)
		}

		want = http.StatusOK
		if d := query(invokeQ).Get("deadline"); d != "" {
			if v, err := strconv.ParseFloat(d, 64); err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				want = http.StatusBadRequest
			}
		}
		var mu sync.Mutex
		var got *httptest.ResponseRecorder
		go func() {
			w := post("/invoke", invokeQ)
			mu.Lock()
			got = w
			mu.Unlock()
		}()
		stepUntil(t, rt, fake, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return got != nil
		})
		if got.Code != want {
			t.Fatalf("invoke ?%s answered %d, want %d: %s", invokeQ, got.Code, want, got.Body)
		}
		if err := rt.Drain(time.Second); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		if n := rt.Inflight(); n != 0 {
			t.Fatalf("%d requests inflight after Drain", n)
		}
	})
}

// InvokeWithDeadline refuses a budget that is not a finite number — NaN
// would run unbounded, ±Inf would queue a deadline that never comes — and
// takes no admission slot for it.
func TestInvokeRejectsNonFiniteDeadline(t *testing.T) {
	rt, _ := newTestRuntime(t, Config{App: testChain([]float64{0.5}, 1.0), SLA: 10}, keepAliveDriver(1))
	for _, budget := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := rt.InvokeWithDeadline(context.Background(), budget); err == nil {
			t.Errorf("InvokeWithDeadline(%v) admitted the request", budget)
		}
	}
	if n := rt.Inflight(); n != 0 {
		t.Errorf("%d admission slots taken by rejected budgets", n)
	}
}
