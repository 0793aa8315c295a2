package simulator

import (
	"bytes"
	"math"
	"testing"

	"smiless/internal/apps"
	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/faults"
	"smiless/internal/mathx"
	"smiless/internal/trace"
	"smiless/internal/tracing"
)

// replayOnce builds the same seeded trace and fault plan from scratch and
// runs one full simulation, returning the serialized Report. Everything —
// trace sampling, ground-truth timings, fault draws, retry jitter — derives
// from fixed seeds, so two calls must agree to the last bit.
func replayOnce(t *testing.T) []byte {
	report, _ := replayOnceTraced(t, false)
	return report
}

// replayOnceTraced is replayOnce with an optional span recorder attached;
// it returns the serialized Report and, when traced, the simulation state
// needed to cross-check the trace against the run statistics.
func replayOnceTraced(t *testing.T, traced bool) ([]byte, *replayRun) {
	t.Helper()
	app := apps.Pipeline(3)
	tr := trace.Bursty(mathx.NewRand(42), 20, 2, 3, 600)
	plan := &faults.Plan{
		Default:    faults.Rates{InitFail: 0.05, ExecFail: 0.04, Straggler: 0.05},
		NodeFaults: []faults.NodeFault{{Node: 0, Kind: faults.NodeCrash, Start: 200, End: 320}},
		Seed:       7,
	}
	d := &staticDriver{directive: func(dag.NodeID) Directive {
		return Directive{
			Config: cpu(4), Policy: coldstart.KeepAlive,
			KeepAlive: 30, Batch: 4, Instances: 4,
			Retry:      faults.RetryPolicy{MaxAttempts: 3, BaseBackoff: 0.2, MaxBackoff: 2, JitterFrac: 0.3, Timeout: 20},
			HedgeDelay: 15,
		}
	}}
	sim := MustNew(Config{App: app, SLA: 60, Seed: 1234, Faults: plan}, d)
	var rec *tracing.Recorder
	var run *replayRun
	if traced {
		rec = tracing.NewRecorder(app.Graph)
		sim.AttachRecorder(rec)
	}
	st := sim.MustRun(tr)
	if traced {
		run = &replayRun{rec: rec, stats: st}
	}
	if st.Completed == 0 {
		t.Fatal("replay run completed no requests; the regression test is vacuous")
	}
	if st.InitFailures+st.ExecFailures+st.Stragglers+st.NodeDownEvents == 0 {
		t.Fatal("replay run injected no faults; the regression test is vacuous")
	}
	rep := BuildReport("replay", "pipeline3", st)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes(), run
}

// replayRun carries one traced replay's outputs for cross-checking.
type replayRun struct {
	rec   *tracing.Recorder
	stats *RunStats
}

// TestReplayIsByteIdentical is the repo's reproducibility contract: the same
// seeded trace and fault plan, run twice in-process, must produce
// byte-identical Report JSON. This is what the determinism and maporder
// analyzers (internal/lint) exist to protect — a wall-clock read, an
// unsorted map-order float accumulation or a stray global-RNG draw anywhere
// on the run path shows up here as a diff.
func TestReplayIsByteIdentical(t *testing.T) {
	a := replayOnce(t)
	b := replayOnce(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("replay diverged:\nrun 1:\n%s\nrun 2:\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("empty report")
	}
}

// TestTracedReplayIsByteIdentical extends the reproducibility contract to
// tracing: the same seeded run with a span recorder attached, twice, must
// produce byte-identical Chrome trace JSON and Report, and every completed
// request's critical-path phase sums must reconcile with the E2E latency the
// simulator recorded for it.
func TestTracedReplayIsByteIdentical(t *testing.T) {
	repA, runA := replayOnceTraced(t, true)
	repB, runB := replayOnceTraced(t, true)
	if !bytes.Equal(repA, repB) {
		t.Fatalf("traced replay report diverged:\nrun 1:\n%s\nrun 2:\n%s", repA, repB)
	}
	var trA, trB bytes.Buffer
	if err := runA.rec.WriteChromeTrace(&trA, 600); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if err := runB.rec.WriteChromeTrace(&trB, 600); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if !bytes.Equal(trA.Bytes(), trB.Bytes()) {
		t.Fatal("traced replay produced diverging Chrome trace JSON")
	}

	// The untraced replay must not be perturbed by the recorder: the traced
	// report may only add the tracing-only fields, so compare the shared
	// headline numbers through the stats object instead of the JSON.
	bds := runA.rec.Breakdowns()
	e2e := runA.stats.E2E
	if len(bds) == 0 {
		t.Fatal("traced replay produced no breakdowns; the reconciliation check is vacuous")
	}
	if len(bds) != len(e2e) {
		t.Fatalf("breakdowns (%d) and recorded E2E samples (%d) disagree", len(bds), len(e2e))
	}
	for i, bd := range bds {
		if math.Abs(bd.E2E-e2e[i]) > 1e-9 {
			t.Errorf("request %d: breakdown E2E %.12f != recorded E2E %.12f", bd.Req, bd.E2E, e2e[i])
		}
		if math.Abs(bd.PhaseSum()-bd.E2E) > 1e-9 {
			t.Errorf("request %d: phase sum %.12f does not reconcile with E2E %.12f (phases %v)",
				bd.Req, bd.PhaseSum(), bd.E2E, bd.Phases)
		}
	}
}
