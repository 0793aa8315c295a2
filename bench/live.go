package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"smiless/internal/apps"
	"smiless/internal/dag"
	"smiless/internal/serving"
)

const (
	// liveClients is the closed loop's width: two callers keep one request
	// in the runtime while the other's result is being read. The live
	// workloads run on one P, so a third would only queue behind these.
	liveClients = 2
	// liveSLA is generous on purpose: with zero-latency functions every
	// request that comes back at all is within it, so sla_attain_share on
	// the live workloads counts failures and stalls, nothing else.
	liveSLA = 2.0
	// benchIDHeader carries the request's index on traced rounds so the
	// timing handler can file its span under the client's request.
	benchIDHeader = "X-Bench-Id"
)

// diamondApp is the bench-owned A→{B,C}→D application whose functions take
// no model time: what a request costs is the runtime's bookkeeping alone.
func diamondApp() *apps.Application {
	g := dag.New()
	specs := map[dag.NodeID]*apps.FunctionSpec{}
	for _, id := range []dag.NodeID{"A", "B", "C", "D"} {
		g.MustAddNode(id, "bench")
		specs[id] = &apps.FunctionSpec{Name: string(id), Model: "bench", Field: "bench"}
	}
	g.MustAddEdge("A", "B")
	g.MustAddEdge("A", "C")
	g.MustAddEdge("B", "D")
	g.MustAddEdge("C", "D")
	return &apps.Application{Name: "bench-diamond", Graph: g, Specs: specs}
}

type liveState struct {
	seed      int64
	overHTTP  bool
	perClient int
}

func setupLiveInvoke(o options) (state, error) {
	st := &liveState{seed: o.seed, perClient: 70000}
	if o.quick {
		st.perClient = 2000
	}
	return st, st.warmUp()
}

func setupLiveHTTP(o options) (state, error) {
	st := &liveState{seed: o.seed, overHTTP: true, perClient: 22000}
	if o.quick {
		st.perClient = 600
	}
	return st, st.warmUp()
}

// warmUp serves half a round through a runtime of its own and throws the
// result away, apart from its output checks.
func (st *liveState) warmUp() error {
	warm := *st
	warm.perClient = st.perClient / 2
	rd, err := warm.run(-1, nil)
	if err != nil {
		return err
	}
	if rd.check != "" {
		return errors.New("warm-up: " + rd.check)
	}
	return nil
}

func (st *liveState) setupLayer() map[string]float64 { return nil }
func (st *liveState) probe() map[string]float64      { return nil }

// liveServer is one round's system under test: a fresh runtime, and for
// live_http the gateway on a real loopback listener.
type liveServer struct {
	rt      *serving.Runtime
	handler *timedHandler
	srv     *http.Server
	served  chan error
	url     string
}

func (st *liveState) start(traced bool) (*liveServer, error) {
	rt, err := serving.New(serving.Config{
		App: diamondApp(), SLA: liveSLA, Seed: st.seed, MaxInflight: 4096,
	}, staticDriver{batch: 1, instances: 2})
	if err != nil {
		return nil, fmt.Errorf("serving.New: %w", err)
	}
	rt.Start()
	ls := &liveServer{rt: rt}
	if !st.overHTTP {
		return ls, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	var h http.Handler = serving.NewGateway(rt, "bench-static")
	if traced {
		ls.handler = newTimedHandler(h, liveClients*st.perClient)
		h = ls.handler
	}
	ls.srv = &http.Server{Handler: h}
	ls.served = make(chan error, 1)
	ls.url = "http://" + ln.Addr().String() + "/invoke"
	go func() { ls.served <- ls.srv.Serve(ln) }()
	return ls, nil
}

// stop shuts the listener and the runtime down and waits for both.
func (ls *liveServer) stop() error {
	var err error
	if ls.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err = ls.srv.Shutdown(ctx)
		if serr := <-ls.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
			err = serr
		}
	}
	ls.rt.Close()
	return err
}

// clientLog is what one closed-loop client measured. Slices are allocated
// before the round so the loop itself does not grow anything.
type clientLog struct {
	latNs  []int64 // send → checked result, every request
	failed int
	within int
	// Traced rounds only.
	startNs, callNs, waitNs []int64
	rtE2EUs                 []float64
	err                     error
}

func newClientLog(n int, traced bool) *clientLog {
	c := &clientLog{latNs: make([]int64, 0, n)}
	if traced {
		c.startNs = make([]int64, 0, n)
		c.callNs = make([]int64, 0, n)
		c.waitNs = make([]int64, 0, n)
		c.rtE2EUs = make([]float64, 0, n)
	}
	return c
}

func (c *clientLog) record(lat int64, ok bool) {
	c.latNs = append(c.latNs, lat)
	switch {
	case !ok:
		c.failed++
	case float64(lat)/1e9 <= liveSLA:
		c.within++
	}
}

// trace files the traced-round fields of one request; on untraced rounds the
// slices are nil and nothing is kept.
func (c *clientLog) trace(start, call, wait int64, rtE2EUs float64) {
	if c.startNs == nil {
		return
	}
	c.startNs = append(c.startNs, start)
	c.callNs = append(c.callNs, call)
	c.waitNs = append(c.waitNs, wait)
	c.rtE2EUs = append(c.rtE2EUs, rtE2EUs)
}

// invokeLoop is one caller of live_invoke: Invoke, wait for the result,
// repeat. callNs is the time for Invoke to hand back its channel (admission
// and arrival bookkeeping under rt.mu); waitNs the time until the result is
// delivered.
func invokeLoop(rt *serving.Runtime, n int, epoch time.Time, c *clientLog) {
	ctx := context.Background()
	traced := c.startNs != nil
	for i := 0; i < n; i++ {
		t0 := int64(time.Since(epoch))
		ch, err := rt.Invoke(ctx)
		if err != nil {
			c.record(int64(time.Since(epoch))-t0, false)
			c.trace(t0, 0, 0, 0)
			continue
		}
		t1 := t0
		if traced {
			t1 = int64(time.Since(epoch))
		}
		res := <-ch
		t2 := int64(time.Since(epoch))
		c.record(t2-t0, !res.Failed)
		c.trace(t0, t1-t0, t2-t1, res.E2E*1e6)
	}
}

// httpLoop is one client of live_http: POST /invoke over its own keep-alive
// connection, read the body, check status and the failed flag, repeat.
func httpLoop(url string, client, n int, epoch time.Time, c *clientLog) {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	req, err := http.NewRequest(http.MethodPost, url, nil)
	if err != nil {
		c.err = err
		return
	}
	traced := c.startNs != nil
	id := make([]string, 1)
	var body bytes.Buffer
	for i := 0; i < n; i++ {
		if traced {
			id[0] = strconv.Itoa(client*n + i)
			req.Header[benchIDHeader] = id
		}
		t0 := int64(time.Since(epoch))
		resp, err := hc.Do(req)
		if err != nil {
			c.record(int64(time.Since(epoch))-t0, false)
			c.trace(t0, 0, 0, 0)
			c.err = err
			continue
		}
		body.Reset()
		_, rerr := body.ReadFrom(resp.Body)
		cerr := resp.Body.Close()
		var ir serving.InvokeResponse
		ok := rerr == nil && cerr == nil && resp.StatusCode == http.StatusOK &&
			json.Unmarshal(body.Bytes(), &ir) == nil && !ir.Failed
		t2 := int64(time.Since(epoch))
		c.record(t2-t0, ok)
		c.trace(t0, 0, 0, ir.E2ESeconds*1e6)
	}
}

// timedHandler is the outside-in probe of the gateway: it stamps every
// request that carries a bench id on entry and on return. Entries are atomic
// because the only ordering between this store and the client's later read
// is the TCP connection, which the race detector cannot see.
type timedHandler struct {
	inner      http.Handler
	epoch      time.Time
	start, end []atomic.Int64
}

func newTimedHandler(inner http.Handler, n int) *timedHandler {
	return &timedHandler{inner: inner, start: make([]atomic.Int64, n), end: make([]atomic.Int64, n)}
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.Header.Get(benchIDHeader))
	if err != nil || id < 0 || id >= len(h.start) {
		h.inner.ServeHTTP(w, r)
		return
	}
	h.start[id].Store(int64(time.Since(h.epoch)))
	h.inner.ServeHTTP(w, r)
	h.end[id].Store(int64(time.Since(h.epoch)))
}

func (st *liveState) run(r int, log *spanLog) (round, error) {
	var rd round
	traced := log != nil
	ls, err := st.start(traced)
	if err != nil {
		return rd, err
	}
	epoch := time.Now()
	if traced {
		epoch = log.epoch
	}
	if ls.handler != nil {
		ls.handler.epoch = epoch
	}
	logs := make([]*clientLog, liveClients)
	for i := range logs {
		logs[i] = newClientLog(st.perClient, traced)
	}
	costBefore := ls.rt.Snapshot().TotalCost + ls.rt.LiveCost()

	var wg sync.WaitGroup
	runtime.GC()
	start := takeReading()
	for i := range logs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if st.overHTTP {
				httpLoop(ls.url, i, st.perClient, epoch, logs[i])
			} else {
				invokeLoop(ls.rt, st.perClient, epoch, logs[i])
			}
		}(i)
	}
	wg.Wait()
	rd.use = takeReading().since(start)

	snap := ls.rt.Snapshot()
	rd.costUSD = snap.TotalCost + ls.rt.LiveCost() - costBefore
	rejected := ls.rt.Rejected()
	if err := ls.stop(); err != nil {
		return rd, fmt.Errorf("shutdown: %w", err)
	}

	rd.sent = liveClients * st.perClient
	rd.scored = rd.sent
	for _, c := range logs {
		if c.err != nil && rd.check == "" {
			rd.check = "client error: " + c.err.Error()
		}
		rd.failed += c.failed
		rd.withinSLA += c.within
		for _, ns := range c.latNs {
			rd.latMs = append(rd.latMs, float64(ns)/1e6)
		}
	}
	rd.completed = rd.sent - rd.failed
	switch {
	case rd.check != "":
	case rd.failed > 0:
		rd.check = fmt.Sprintf("%d of %d requests failed or were not answered with 200 and failed=false", rd.failed, rd.sent)
	case snap.Completed != rd.sent:
		rd.check = fmt.Sprintf("server completed %d requests, clients sent %d", snap.Completed, rd.sent)
	case rejected != 0:
		rd.check = fmt.Sprintf("server rejected %d requests", rejected)
	}
	if traced {
		rd.layer = st.layer(log, ls.handler, logs, rd, snap.Completed, rejected)
	}
	return rd, nil
}

// spanSample is how many requests per client become spans in the trace file;
// the layer table always uses every request.
const spanSample = 2000

// layer turns the clients' timestamps, the handler's stamps and the
// runtime's own per-request E2E into the layer table, and files the first
// spanSample requests of each client as spans: request → gateway.ServeHTTP →
// serving runtime (live_http), or request → serving.Invoke call → resolve
// wait (live_invoke).
func (st *liveState) layer(log *spanLog, h *timedHandler, logs []*clientLog, rd round, completed, rejected int) map[string]float64 {
	var lat, call, wait, rtE2E, handler, gwSelf, outside []float64
	for ci, c := range logs {
		for i, ns := range c.latNs {
			lat = append(lat, float64(ns)/1e3)
			track := int32(ci*st.perClient + i)
			var root int32 = -1
			if i < spanSample {
				root = log.add("request", c.startNs[i], c.startNs[i]+ns, -1, track)
			}
			rtE2E = append(rtE2E, c.rtE2EUs[i])
			if !st.overHTTP {
				call = append(call, float64(c.callNs[i])/1e3)
				wait = append(wait, float64(c.waitNs[i])/1e3)
				if root >= 0 {
					mid := c.startNs[i] + c.callNs[i]
					log.add("serving.Invoke", c.startNs[i], mid, root, track)
					log.add("serving.resolve_wait", mid, mid+c.waitNs[i], root, track)
				}
				continue
			}
			hs, he := h.start[track].Load(), h.end[track].Load()
			if he <= hs {
				continue // the handler never saw this id
			}
			hUs := float64(he-hs) / 1e3
			handler = append(handler, hUs)
			gwSelf = append(gwSelf, hUs-c.rtE2EUs[i])
			outside = append(outside, float64(ns)/1e3-hUs)
			if root >= 0 {
				hid := log.add("gateway.ServeHTTP", hs, he, root, track)
				// The runtime stamps only a duration; draw it ending
				// where the handler does, which is where it is written.
				log.add("serving.runtime", he-int64(c.rtE2EUs[i]*1e3), he, hid, track)
			}
		}
	}
	q := func(xs []float64, p float64) float64 { return quantile(sortedCopy(xs), p) }
	m := map[string]float64{
		"serving.runtime_e2e_p50_us": q(rtE2E, 0.5),
		"serving.rejected":           float64(rejected),
		"serving.completed":          float64(completed),
		"loadgen.clients":            liveClients,
		"loadgen.sent":               float64(rd.sent),
		"loadgen.failed":             float64(rd.failed),
		"loadgen.lat_p99_us":         q(lat, 0.99),
		"loadgen.lat_max_us":         q(lat, 1),
	}
	if st.overHTTP {
		m["gateway.handler_p50_us"] = q(handler, 0.5)
		m["gateway.handler_p99_us"] = q(handler, 0.99)
		m["gateway.self_p50_us"] = q(gwSelf, 0.5)
		m["nethttp.outside_handler_p50_us"] = q(outside, 0.5)
	} else {
		m["serving.invoke_call_p50_us"] = q(call, 0.5)
		m["serving.resolve_wait_p50_us"] = q(wait, 0.5)
		m["serving.resolve_wait_p99_us"] = q(wait, 0.99)
	}
	return m
}
