package serving

import (
	"context"
	"fmt"
	"testing"
	"time"

	"smiless/internal/faults"
	"smiless/internal/hardware"
	"smiless/internal/simulator"
)

// nodeChainConfig is the shared fixture for the churn tests: one function
// with a noise-free 1s cold start and 5s execution, placed on its home node
// (PlaceP2C) among the given node agents, with the default detector timings
// (tick 0.25s, suspect 0.5s, down 1.0s). The long execution leaves a wide
// window for faults to land mid-flight, and exact latencies make every
// failover assertion exact.
func nodeChainConfig(nodes int, plan *faults.Plan) Config {
	return Config{
		App: testChain([]float64{5.0}, 1.0), SLA: 30, Faults: plan,
		Cluster: hardware.UnboundedCluster(nodes), Placement: simulator.PlaceP2C,
	}
}

// TestNodeCrashFailoverExactLatency is the headline lossless-failover test:
// a node crashes mid-execution, the gossip detector walks it up → suspect →
// down, and the in-flight request is re-forwarded to a live peer. The
// response arrives exactly when the failed-over attempt finishes — detection
// at t=3.0 (crash at 2.1 after the t=2.0 heartbeat, plus DownAfter=1.0
// rounded to the t=3.0 tick) plus a fresh 1s cold start plus the 5s
// execution — and no request is lost or duplicated.
func TestNodeCrashFailoverExactLatency(t *testing.T) {
	home := simulator.HomeNode("F1", 3)
	plan := &faults.Plan{NodeFaults: []faults.NodeFault{
		{Node: home, Kind: faults.NodeCrash, Start: 2.1},
	}}
	rt, fake := newTestRuntime(t, nodeChainConfig(3, plan), keepAliveDriver(1))

	ch := mustInvoke(t, rt)
	res := await(t, rt, fake, ch)
	if res.Failed {
		t.Fatalf("failed-over request must complete, got %+v", res)
	}
	if want := 3.0 + 1.0 + 5.0; !near(res.E2E, want, 1e-9) {
		t.Errorf("failed-over E2E = %v, want exactly %v", res.E2E, want)
	}
	select {
	case dup := <-ch:
		t.Errorf("duplicate result delivered: %+v", dup)
	default:
	}

	st := rt.Snapshot()
	if st.Completed != 1 || st.FailedInvocations != 0 {
		t.Errorf("Completed=%d FailedInvocations=%d, want 1/0", st.Completed, st.FailedInvocations)
	}
	if st.NodeDownEvents != 1 || st.Failovers != 1 || st.EvictedContainers != 1 {
		t.Errorf("NodeDownEvents=%d Failovers=%d EvictedContainers=%d, want 1/1/1",
			st.NodeDownEvents, st.Failovers, st.EvictedContainers)
	}
	if st.Forwards != 1 {
		t.Errorf("Forwards = %d, want 1 (replacement placed off the dead home)", st.Forwards)
	}
	if st.Retries != 0 {
		t.Errorf("Retries = %d, want 0: failover must not charge the retry budget", st.Retries)
	}
	rt.Close()
	if got := rt.Snapshot().NodeDownSeconds; got <= 0 {
		t.Errorf("NodeDownSeconds = %v, want > 0 for a never-recovered node", got)
	}
}

// TestNodePartitionHealFirstCompletionWins partitions the home node
// mid-execution. The detector declares it down at t=3.0 and launches a twin
// on a live peer; the partition heals at t=7.0 and the original completion —
// held behind the partition since t=6.0 — replays first and wins. The twin's
// completion at t=9.0 must be discarded by the idempotency dedup.
func TestNodePartitionHealFirstCompletionWins(t *testing.T) {
	home := simulator.HomeNode("F1", 3)
	plan := &faults.Plan{NodeFaults: []faults.NodeFault{
		{Node: home, Kind: faults.NodePartition, Start: 2.1, End: 7.0},
	}}
	rt, fake := newTestRuntime(t, nodeChainConfig(3, plan), keepAliveDriver(1))

	ch := mustInvoke(t, rt)
	res := await(t, rt, fake, ch)
	if res.Failed {
		t.Fatalf("request across a healed partition must complete, got %+v", res)
	}
	if want := 7.0; !near(res.E2E, want, 1e-9) {
		t.Errorf("healed-partition E2E = %v, want exactly %v (the heal time)", res.E2E, want)
	}

	// Let the racing twin finish (t=9.0) and the detector recover the node
	// (the t=7.0 tick runs right after the heal): the twin's completion must
	// be swallowed.
	stepUntil(t, rt, fake, func() bool { return fake.Now() >= 9.5 })
	select {
	case dup := <-ch:
		t.Errorf("twin delivered a duplicate result: %+v", dup)
	default:
	}
	st := rt.Snapshot()
	if st.Completed != 1 || st.FailedInvocations != 0 {
		t.Errorf("Completed=%d FailedInvocations=%d, want 1/0", st.Completed, st.FailedInvocations)
	}
	if st.Failovers != 1 {
		t.Errorf("Failovers = %d, want 1 (the twin)", st.Failovers)
	}
	if st.EvictedContainers != 0 {
		t.Errorf("EvictedContainers = %d, want 0: partitioned containers survive", st.EvictedContainers)
	}
	// Down from the t=3.0 verdict until the heal at t=7.0 (the gossip tick
	// at exactly 7.0 runs after the scheduled heal and recovers the node).
	if want := 4.0; !near(st.NodeDownSeconds, want, 1e-9) {
		t.Errorf("NodeDownSeconds = %v, want exactly %v", st.NodeDownSeconds, want)
	}
}

// TestDrainRacesNodeOutage races a graceful drain against an injected node
// crash: the drain must complete — via failover, not loss — with the one
// inflight request resolved successfully.
func TestDrainRacesNodeOutage(t *testing.T) {
	home := simulator.HomeNode("F1", 3)
	plan := &faults.Plan{NodeFaults: []faults.NodeFault{
		{Node: home, Kind: faults.NodeCrash, Start: 2.1, End: 40},
	}}
	rt, fake := newTestRuntime(t, nodeChainConfig(3, plan), keepAliveDriver(1))

	ch := mustInvoke(t, rt)
	drainErr := make(chan error, 1)
	go func() { drainErr <- rt.Drain(30 * time.Second) }()
	waitForReal(t, func() bool { return rt.Draining() })

	// The drain is now racing the crash at t=2.1; step the clock until it
	// resolves. It must not time out: the failed-over request completes at
	// t=9.0 and releases the drain.
	var err error
	got := false
	stepUntil(t, rt, fake, func() bool {
		select {
		case err = <-drainErr:
			got = true
		default:
		}
		return got
	})
	if err != nil {
		t.Fatalf("Drain during node outage: %v", err)
	}
	res := <-ch
	if res.Failed || !near(res.E2E, 9.0, 1e-9) {
		t.Errorf("drained request = %+v, want success at E2E 9.0", res)
	}
	if got := rt.Inflight(); got != 0 {
		t.Errorf("Inflight after drain = %d, want 0", got)
	}
	if st := rt.Snapshot(); st.Completed != 1 || st.FailedInvocations != 0 {
		t.Errorf("Completed=%d FailedInvocations=%d, want 1/0", st.Completed, st.FailedInvocations)
	}
}

// TestDeadlineExceededExact bounds a 6s request at 2s: it must fail at
// exactly t=2.0 with the DeadlineExceeded cause and free its slot.
func TestDeadlineExceededExact(t *testing.T) {
	rt, fake := newTestRuntime(t, nodeChainConfig(1, nil), keepAliveDriver(1))

	ch, err := rt.InvokeWithDeadline(context.Background(), 2.0)
	if err != nil {
		t.Fatalf("InvokeWithDeadline: %v", err)
	}
	res := await(t, rt, fake, ch)
	if !res.Failed || !res.DeadlineExceeded || res.Abandoned {
		t.Fatalf("result = %+v, want Failed+DeadlineExceeded", res)
	}
	if !near(res.E2E, 2.0, 1e-9) {
		t.Errorf("deadline E2E = %v, want exactly 2.0", res.E2E)
	}
	if got := rt.Inflight(); got != 0 {
		t.Errorf("Inflight after deadline = %d, want 0", got)
	}
	// The stranded execution still finishes at t=6.0; it must not resurrect
	// the failed request.
	stepUntil(t, rt, fake, func() bool { return fake.Now() >= 6.5 })
	st := rt.Snapshot()
	if st.DeadlineExceeded != 1 || st.FailedInvocations != 1 || st.Completed != 0 {
		t.Errorf("DeadlineExceeded=%d FailedInvocations=%d Completed=%d, want 1/1/0",
			st.DeadlineExceeded, st.FailedInvocations, st.Completed)
	}
}

// TestAbandonFreesAdmissionSlot cancels a caller's context mid-request: the
// request must fail as Abandoned and give its admission slot back without
// any clock progress.
func TestAbandonFreesAdmissionSlot(t *testing.T) {
	cfg := nodeChainConfig(1, nil)
	cfg.MaxInflight = 1
	rt, _ := newTestRuntime(t, cfg, keepAliveDriver(1))

	ctx, cancel := context.WithCancel(context.Background())
	ch, err := rt.Invoke(ctx)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if _, err := rt.Invoke(context.Background()); err != ErrOverloaded {
		t.Fatalf("second Invoke err = %v, want ErrOverloaded", err)
	}
	cancel()
	var res Result
	select {
	case res = <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned request never resolved")
	}
	if !res.Failed || !res.Abandoned || res.DeadlineExceeded {
		t.Errorf("result = %+v, want Failed+Abandoned", res)
	}
	waitForReal(t, func() bool { return rt.Inflight() == 0 })
	if _, err := rt.Invoke(context.Background()); err != nil {
		t.Errorf("Invoke after abandon err = %v, want slot freed", err)
	}
	if got := rt.Snapshot().Abandoned; got != 1 {
		t.Errorf("stats.Abandoned = %d, want 1", got)
	}

	// A context cancelled before admission must not burn a slot at all.
	dead, deadCancel := context.WithCancel(context.Background())
	deadCancel()
	before := rt.Inflight()
	if _, err := rt.Invoke(dead); err == nil {
		t.Error("Invoke with a cancelled context must fail fast")
	}
	if got := rt.Inflight(); got != before {
		t.Errorf("Inflight moved %d → %d on a pre-cancelled Invoke", before, got)
	}
}

// admitRef admits one request as Invoke does and returns its channel and
// the engine's ref for it.
func admitRef(t *testing.T, rt *Runtime) (<-chan Result, simulator.Ref) {
	t.Helper()
	ch, ref, err := rt.admit(context.Background(), 0, true)
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	return ch, ref
}

// TestStaleAbandonSparesReusedSlot: an abandon that fires after its request
// resolved — the context watch lost the race with resolve — finds the
// engine's request slot, and the waiter indexed by it, already serving the
// next request. It names the old request by its ref, so the new one
// completes.
func TestStaleAbandonSparesReusedSlot(t *testing.T) {
	rt, fake := newTestRuntime(t, nodeChainConfig(1, nil), keepAliveDriver(1))
	ch, first := admitRef(t, rt)
	old := await(t, rt, fake, ch)
	if old.Failed {
		t.Fatalf("first request = %+v, want success", old)
	}
	ch, next := admitRef(t, rt)
	if next.Slot() != first.Slot() || next == first {
		t.Fatal("the second request did not take over the first request's slot")
	}
	rt.abandon(first)
	if res := await(t, rt, fake, ch); res.Failed || res.Abandoned {
		t.Errorf("second request = %+v, want success", res)
	}
	if st := rt.Snapshot(); st.Abandoned != 0 || st.Completed != 2 {
		t.Errorf("Abandoned=%d Completed=%d, want 0/2", st.Abandoned, st.Completed)
	}
}

// TestMultiNodeChurnDeterministic runs the same crash+partition churn twice
// on a fake clock: every statistic, including the full E2E series and the
// detector's down-time ledger, must be identical across runs.
func TestMultiNodeChurnDeterministic(t *testing.T) {
	run := func() string {
		plan := &faults.Plan{NodeFaults: []faults.NodeFault{
			{Node: 0, Kind: faults.NodeCrash, Start: 5.0, End: 20.0},
			{Node: 1, Kind: faults.NodePartition, Start: 8.0, End: 25.0},
		}}
		cfg := nodeChainConfig(4, plan)
		cfg.Seed = 11
		rt, fake := newTestRuntime(t, cfg, keepAliveDriver(1))

		const reqs = 6
		chans := make([]<-chan Result, reqs)
		for i := range chans {
			chans[i] = mustInvoke(t, rt)
		}
		results := make([]Result, reqs)
		for i, ch := range chans {
			results[i] = await(t, rt, fake, ch)
		}
		// Run past the heal and recovery so down-time ledgers settle.
		stepUntil(t, rt, fake, func() bool { return fake.Now() >= 30 })
		st := rt.Snapshot()
		sig := fmt.Sprintf("done@%.9f completed=%d failed=%d fwd=%d fo=%d downEv=%d evict=%d retries=%d downSec=%.9f cost=%.9f",
			fake.Now(), st.Completed, st.FailedInvocations, st.Forwards, st.Failovers,
			st.NodeDownEvents, st.EvictedContainers, st.Retries, st.NodeDownSeconds, st.TotalCost)
		for _, r := range results {
			sig += fmt.Sprintf(" [%d %.9f %v]", r.ReqID, r.E2E, r.Failed)
		}
		rt.Close()
		return sig
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("churn run not deterministic:\n run A: %s\n run B: %s", a, b)
	}
}

// A chaos call that queues an event earlier than the deadline the timer is
// armed for must re-arm it. One node (so no gossip tick bounds the sleep):
// request A cold-starts and leaves its container idle on a 60s keep-alive.
// Request B runs warm on it from t=7 and the node is killed at t=8, so B's
// completion at t=12 dies with the process and the timer moves to the
// keep-alive entry at t=66. Restarting the node at t=13 fails B over onto a
// fresh container: a 1s cold start and the 5s execution finish it at t=19.
// A timer left at t=66 would run the cold start then.
func TestChaosWakesSleepingLoop(t *testing.T) {
	rt, fake := newTestRuntime(t, Config{App: testChain([]float64{5.0}, 1.0), SLA: 30, Window: 1000}, keepAliveDriver(1))
	if res := await(t, rt, fake, mustInvoke(t, rt)); res.Failed || !near(res.E2E, 6, 1e-9) {
		t.Fatalf("request A: %+v, want a 6s cold completion", res)
	}
	stepTo(t, rt, fake, 7)
	ch := mustInvoke(t, rt)
	stepTo(t, rt, fake, 8)
	if err := rt.KillNode(0); err != nil {
		t.Fatal(err)
	}
	stepTo(t, rt, fake, 13)
	if next, ok := fake.NextDeadline(); !ok || next != 66 {
		t.Fatalf("timer armed for %v (%t) before the restart, want the keep-alive at 66", next, ok)
	}
	if err := rt.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	res := await(t, rt, fake, ch)
	if res.Failed || !near(res.End, 19, 1e-9) {
		t.Errorf("request B resolved %+v, want completed at t=19", res)
	}
}
