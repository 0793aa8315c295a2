package simulator

import (
	"runtime"
	"slices"
	"testing"

	"smiless/internal/apps"
	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/faults"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/trace"
)

// newLive wires a LiveEngine as the serving runtime does — nodes whose
// capacity never binds — with every function under dir, placed on its home
// node (PlaceP2C), and begins the run at t=0.
func newLive(app *apps.Application, dir Directive, nodes int, window float64) *LiveEngine {
	l := &LiveEngine{}
	if _, err := l.InitLive(Config{
		App: app, SLA: 10, Window: window, Seed: 1, Cluster: hardware.UnboundedCluster(nodes),
		Placement: PlaceP2C,
	}, &staticDriver{directive: func(dag.NodeID) Directive { return dir }}, 0, nil); err != nil {
		panic(err)
	}
	l.Begin()
	return l
}

// runTo handles every event due by t, each at its own instant, calls
// watch (when set) after each, and leaves the engine standing at t.
func runTo(l *LiveEngine, t float64, watch func()) {
	for {
		at, ok := l.NextAt()
		if !ok || at > t {
			break
		}
		l.SetNow(at)
		l.HandleNext()
		if watch != nil {
			watch()
		}
	}
	l.SetNow(t)
}

// diamond is a four-function DAG, A → {B, C} → D, whose functions
// cold-start in exactly 1 s and execute in exactly 0.1 s.
func diamond() *apps.Application {
	g := dag.New()
	specs := make(map[dag.NodeID]*apps.FunctionSpec)
	for _, id := range []dag.NodeID{"A", "B", "C", "D"} {
		g.MustAddNode(id, "test")
		specs[id] = &apps.FunctionSpec{Name: string(id), Model: "test", Field: "test", CPUG: 0.1, CPUInitMu: 1}
	}
	for _, e := range [][2]dag.NodeID{{"A", "B"}, {"A", "C"}, {"B", "D"}, {"C", "D"}} {
		g.MustAddEdge(e[0], e[1])
	}
	return &apps.Application{Name: "diamond", Graph: g, Specs: specs}
}

// A fault-free request through warm containers costs the engine nothing:
// it reuses the Request, and the progress slice that holds every function's
// member, of one that completed. Queue slots, batches and ready queues are
// reused too.
func TestSteadyStateRequestAllocations(t *testing.T) {
	if allocsInstrumented {
		t.Skip("race and invariant builds allocate inside instrumentation")
	}
	l := newLive(diamond(), keepAlive(60), 1, 1e9)
	now := 0.0
	request := func() {
		l.SetNow(now)
		l.Arrive(0, 0)
		now++
		runTo(l, now, nil)
	}
	for i := 0; i < 200; i++ { // cold starts, then every buffer at its high-water mark
		request()
	}
	allocs := testing.AllocsPerRun(1000, request)
	if st := l.Stats(); st.Completed != 1201 || st.FailedInvocations != 0 {
		t.Fatalf("completed %d failed %d of 1201 requests", st.Completed, st.FailedInvocations)
	}
	if allocs > 0 {
		t.Errorf("%v allocations per request at steady state, want 0", allocs)
	}
}

// The simulator front end allocates nothing per request either: a static
// driver's run over a Poisson trace pays for its set-up, its pool and the
// amortised growth of its logs, which over 36 000 requests is a few
// hundredths of an allocation each. At two allocations per request (a
// Request and its progress slice each) it would read 2.
func TestRunRequestAllocations(t *testing.T) {
	if allocsInstrumented {
		t.Skip("race and invariant builds allocate inside instrumentation")
	}
	tr := trace.Poisson(mathx.NewRand(1), 20, 1800)
	sim := MustNew(Config{App: apps.ImageQuery(), SLA: 2, Seed: 1}, &staticDriver{directive: func(dag.NodeID) Directive {
		return Directive{Config: cpu(4), Policy: coldstart.KeepAlive, KeepAlive: 3600, Batch: 4, Instances: 20}
	}})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := sim.MustRun(tr)
	runtime.ReadMemStats(&after)
	if st.Completed != tr.Len() {
		t.Fatalf("completed %d of %d requests", st.Completed, tr.Len())
	}
	if perReq := float64(after.Mallocs-before.Mallocs) / float64(tr.Len()); perReq > 0.05 {
		t.Errorf("%.4f allocations per request over %d requests, want at most 0.05", perReq, tr.Len())
	}
}

// executed runs l to t and adds to seen, in first-seen order, every
// distinct member of request id that was in a running batch after some
// event. It compares ids: once a request completes, its object may stand
// for a later one.
func executed(l *LiveEngine, id int, t float64, seen []*nodeInv) []*nodeInv {
	runTo(l, t, func() {
		for _, c := range l.conts {
			for _, ni := range c.batch {
				if ni.inv.id == id && !slices.Contains(seen, ni) {
					seen = append(seen, ni)
				}
			}
		}
	})
	return seen
}

// scenario is a one-function engine set-up and a run that ends with the
// request it returns resolved, plus the distinct members of it that ran.
type scenario struct {
	dir   Directive
	nodes int
	inj   *scriptInjector // nil: fault-free
	run   func(l *LiveEngine) (*Request, []*nodeInv)
}

func (sc scenario) start() *LiveEngine {
	l := newLive(exactChain(1), sc.dir, sc.nodes, 1)
	if sc.inj != nil {
		l.inj = sc.inj
	}
	return l
}

// hedged: two requests warm two instances; the third straggles 20x on one
// and is hedged onto the other.
func hedged() scenario {
	return scenario{
		dir:   Directive{Config: cpu(4), Policy: coldstart.KeepAlive, KeepAlive: 120, Batch: 1, Instances: 2, HedgeDelay: 0.5},
		nodes: 1, inj: &scriptInjector{straggler: []float64{1, 1, 20}},
		run: func(l *LiveEngine) (*Request, []*nodeInv) {
			l.Arrive(0, 0)
			runTo(l, 0.001, nil)
			l.Arrive(0, 0)
			runTo(l, 5, nil)
			r := l.Arrive(0, 0)
			return r, executed(l, r.id, 10, nil)
		},
	}
}

// twinned: the home node is cut off mid-execution (a 50x straggler); the
// detector declares it down and twins the member on the peer.
func twinned() scenario {
	return scenario{
		dir: keepAlive(60), nodes: 2, inj: &scriptInjector{straggler: []float64{50}},
		run: func(l *LiveEngine) (*Request, []*nodeInv) {
			r := l.Arrive(0, 0)
			seen := executed(l, r.id, 1.5, nil)
			l.PartitionNode(HomeNode("F1", 2), true)
			return r, executed(l, r.id, 10, seen)
		},
	}
}

// alone runs one request by itself to t.
func alone(budget, t float64) func(l *LiveEngine) (*Request, []*nodeInv) {
	return func(l *LiveEngine) (*Request, []*nodeInv) {
		r := l.Arrive(budget, 0)
		return r, executed(l, r.id, t, nil)
	}
}

// A retried member is the request's embedded primary, re-queued; a hedge
// twin and a partition failover copy run beside the primary, so each is an
// object of its own.
func TestMemberIdentity(t *testing.T) {
	retry := keepAlive(60)
	retry.Retry = faults.RetryPolicy{MaxAttempts: 3, BaseBackoff: 0.1}
	cases := []struct {
		name  string
		sc    scenario
		check func(st *RunStats) bool
		copy  func(ni *nodeInv) bool // nil: no copy may run
	}{
		{
			name:  "retry",
			sc:    scenario{dir: retry, nodes: 1, inj: &scriptInjector{execFail: []bool{true}}, run: alone(0, 10)},
			check: func(st *RunStats) bool { return st.Retries == 1 && st.Executions == 2 },
		},
		{
			name:  "hedge",
			sc:    hedged(),
			check: func(st *RunStats) bool { return st.HedgesLaunched == 1 && st.HedgesWon == 1 },
			copy:  func(ni *nodeInv) bool { return ni.isHedge },
		},
		{
			name:  "failover",
			sc:    twinned(),
			check: func(st *RunStats) bool { return st.Failovers == 1 },
			copy:  func(ni *nodeInv) bool { return !ni.isHedge },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.sc.start()
			r, seen := tc.sc.run(l)
			st := l.Stats()
			if !r.resolved || r.failed || !tc.check(st) {
				t.Fatalf("scenario not reached: %s", st.Summary())
			}
			primary := &r.prog[0].member
			if len(seen) == 0 || seen[0] != primary {
				t.Fatalf("%d members ran; the first was not the request's embedded member", len(seen))
			}
			switch {
			case tc.copy == nil && len(seen) != 1:
				t.Errorf("%d distinct members ran, want the primary alone", len(seen))
			case tc.copy != nil && (len(seen) != 2 || !tc.copy(seen[1])):
				t.Errorf("members that ran: %d, want the primary and one separately allocated copy", len(seen))
			}
		})
	}
}

// The next Arrive hands out a request that completed cleanly, and never one
// a second member may still point at or one that did not complete. Builds
// tagged smiless_invariants retire the request instead of reusing it.
func TestRequestReuse(t *testing.T) {
	noRetry := keepAlive(60)
	noRetry.Retry = faults.RetryPolicy{MaxAttempts: 1}
	cases := []struct {
		name    string
		sc      scenario
		outcome func(st *RunStats) bool
		reused  bool
	}{
		{
			name:    "completed",
			sc:      scenario{dir: keepAlive(60), nodes: 1, run: alone(0, 10)},
			outcome: func(st *RunStats) bool { return st.Completed == 1 },
			reused:  true,
		},
		{
			name:    "hedged",
			sc:      hedged(),
			outcome: func(st *RunStats) bool { return st.Completed == 3 && st.HedgesLaunched == 1 },
		},
		{
			name:    "partition-twinned",
			sc:      twinned(),
			outcome: func(st *RunStats) bool { return st.Completed == 1 && st.Failovers == 1 },
		},
		{
			name:    "failed",
			sc:      scenario{dir: noRetry, nodes: 1, inj: &scriptInjector{execFail: []bool{true}}, run: alone(0, 10)},
			outcome: func(st *RunStats) bool { return st.FailedInvocations == 1 && st.Retries == 0 },
		},
		{
			name: "abandoned",
			sc: scenario{dir: keepAlive(60), nodes: 1, run: func(l *LiveEngine) (*Request, []*nodeInv) {
				r := l.Arrive(0, 0)
				runTo(l, 0.5, nil) // still cold-starting
				l.Abandon(r)
				return r, executed(l, r.id, 10, nil)
			}},
			outcome: func(st *RunStats) bool { return st.Abandoned == 1 && st.Completed == 0 },
		},
		{
			name:    "deadline-exceeded",
			sc:      scenario{dir: keepAlive(60), nodes: 1, run: alone(0.5, 10)},
			outcome: func(st *RunStats) bool { return st.DeadlineExceeded == 1 && st.Completed == 0 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.sc.start()
			r, _ := tc.sc.run(l)
			if st := l.Stats(); !r.resolved || !tc.outcome(st) {
				t.Fatalf("scenario not reached: %s", st.Summary())
			}
			id := r.id
			next := l.Arrive(0, 0)
			if reused, want := next == r, tc.reused && !invariantsEnabled; reused != want {
				t.Errorf("request %d handed out again: %t, want %t", id, reused, want)
			}
			if want := tc.reused && invariantsEnabled; r.retired != want {
				t.Errorf("request %d retired: %t, want %t", id, r.retired, want)
			}
			if next.id != id+1 || next.resolved || next.failed {
				t.Errorf("next request: id %d resolved %t failed %t, want a fresh request %d", next.id, next.resolved, next.failed, id+1)
			}
		})
	}
}

// A deadline event outlives a request that completed first; when it comes
// due the object stands for a later request, which it must leave alone.
func TestStaleDeadlineSparesReusedRequest(t *testing.T) {
	l := newLive(exactChain(1), keepAlive(60), 1, 1e9)
	r := l.Arrive(5, 0) // cold start 1 s, execution 0.1 s, deadline at 5
	runTo(l, 4.95, nil)
	if !r.resolved || r.failed {
		t.Fatal("first request did not complete before its deadline")
	}
	next := l.Arrive(0, 0) // runs 4.95–5.05 on the warm instance
	if !invariantsEnabled && next != r {
		t.Fatal("the completed request was not reused")
	}
	runTo(l, 10, nil)
	if st := l.Stats(); st.Completed != 2 || st.DeadlineExceeded != 0 || st.FailedInvocations != 0 {
		t.Errorf("completed %d, deadline-exceeded %d, failed %d; want 2/0/0", st.Completed, st.DeadlineExceeded, st.FailedInvocations)
	}
}
