package simulator

import (
	"slices"
	"testing"

	"smiless/internal/apps"
	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/faults"
	"smiless/internal/hardware"
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

// A fault-free request through warm containers costs the engine two
// allocations: the Request and its progress slice, which holds every
// function's member. Queue slots, batches and ready queues are reused.
func TestSteadyStateRequestAllocations(t *testing.T) {
	if invariantsEnabled {
		t.Skip("invariant builds box every assertion's arguments")
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
	if allocs > 2 {
		t.Errorf("%v allocations per request at steady state, want at most 2", allocs)
	}
}

// executed runs l to t and adds to seen, in first-seen order, every
// distinct member of request r that was in a running batch after some event.
func executed(l *LiveEngine, r *Request, t float64, seen []*nodeInv) []*nodeInv {
	runTo(l, t, func() {
		for _, c := range l.conts {
			for _, ni := range c.batch {
				if ni.inv == r && !slices.Contains(seen, ni) {
					seen = append(seen, ni)
				}
			}
		}
	})
	return seen
}

// A retried member is the request's embedded primary, re-queued; a hedge
// twin and a partition failover copy run beside the primary, so each is an
// object of its own.
func TestMemberIdentity(t *testing.T) {
	retry := keepAlive(60)
	retry.Retry = faults.RetryPolicy{MaxAttempts: 3, BaseBackoff: 0.1}
	hedge := Directive{Config: cpu(4), Policy: coldstart.KeepAlive, KeepAlive: 120, Batch: 1, Instances: 2, HedgeDelay: 0.5}
	cases := []struct {
		name  string
		dir   Directive
		nodes int
		inj   *scriptInjector
		run   func(l *LiveEngine) (*Request, []*nodeInv)
		check func(st *RunStats) bool
		copy  func(ni *nodeInv) bool // nil: no copy may run
	}{
		{
			name: "retry", dir: retry, nodes: 1,
			inj: &scriptInjector{execFail: []bool{true}},
			run: func(l *LiveEngine) (*Request, []*nodeInv) {
				r := l.Arrive(0, 0)
				return r, executed(l, r, 10, nil)
			},
			check: func(st *RunStats) bool { return st.Retries == 1 && st.Executions == 2 },
		},
		{
			// Two requests warm two instances; the third straggles 20x on
			// one and is hedged onto the other.
			name: "hedge", dir: hedge, nodes: 1,
			inj: &scriptInjector{straggler: []float64{1, 1, 20}},
			run: func(l *LiveEngine) (*Request, []*nodeInv) {
				l.Arrive(0, 0)
				runTo(l, 0.001, nil)
				l.Arrive(0, 0)
				runTo(l, 5, nil)
				r := l.Arrive(0, 0)
				return r, executed(l, r, 10, nil)
			},
			check: func(st *RunStats) bool { return st.HedgesLaunched == 1 && st.HedgesWon == 1 },
			copy:  func(ni *nodeInv) bool { return ni.isHedge },
		},
		{
			// The home node is cut off mid-execution (a 50x straggler); the
			// detector declares it down and twins the member on the peer.
			name: "failover", dir: keepAlive(60), nodes: 2,
			inj: &scriptInjector{straggler: []float64{50}},
			run: func(l *LiveEngine) (*Request, []*nodeInv) {
				r := l.Arrive(0, 0)
				seen := executed(l, r, 1.5, nil)
				l.PartitionNode(HomeNode("F1", 2), true)
				return r, executed(l, r, 10, seen)
			},
			check: func(st *RunStats) bool { return st.Failovers == 1 },
			copy:  func(ni *nodeInv) bool { return !ni.isHedge },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := newLive(exactChain(1), tc.dir, tc.nodes, 1)
			l.inj = tc.inj
			r, seen := tc.run(l)
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
