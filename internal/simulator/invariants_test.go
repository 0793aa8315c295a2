//go:build smiless_invariants

package simulator

import (
	"strings"
	"testing"

	"smiless/internal/apps"
	"smiless/internal/trace"
)

func TestInvariantModeEnabled(t *testing.T) {
	if !invariantsEnabled {
		t.Fatal("built with -tags smiless_invariants but invariantsEnabled is false")
	}
}

func TestInvariantPanicsWithMessage(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("invariant(false, ...) did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "invariant violated") || !strings.Contains(msg, "request 7") {
			t.Fatalf("panic payload %v lacks the formatted invariant message", r)
		}
	}()
	invariant(false, "request %d", 7)
}

func TestInvariantHoldsSilently(t *testing.T) {
	invariant(true, "never formatted")
}

// scribbler breaks the ControlPlane history contract: once there is an
// arrival to overwrite, it writes through the read-only view.
type scribbler struct{ *staticDriver }

func (scribbler) OnWindow(cp ControlPlane, now float64) {
	if arr := cp.ArrivalTimes(); len(arr) > 0 {
		arr[0] = -1
	}
}

func TestHistoryGuardCatchesWriteThroughView(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "invariant violated") || !strings.Contains(msg, "history view") {
			t.Fatalf("run with a scribbling driver: recovered %q, want a history-view invariant panic", msg)
		}
	}()
	sim := MustNew(Config{App: apps.Pipeline(2), SLA: 10, Seed: 1}, scribbler{keepAliveDriver(cpu(4), 30)})
	sim.MustRun(&trace.Trace{Horizon: 10, Arrivals: []float64{0.5, 2.5}})
	t.Fatal("a driver wrote through a history view and the run completed")
}

// TestConservationCatchesMisbilling: the end-of-run ledger check passes on a
// clean run (MustRun would have panicked) and its billed-versus-owed branch
// fires once a dollar is billed that no container owed. No driver can reach
// that branch — owed is read from the ledger as settling starts — so the
// check is called directly; serving's table of the same name drives the
// CPU/GPU books branch through both front ends.
func TestConservationCatchesMisbilling(t *testing.T) {
	sim := MustNew(Config{App: apps.Pipeline(2), SLA: 10, Seed: 1}, keepAliveDriver(cpu(4), 30))
	st := sim.MustRun(&trace.Trace{Horizon: 10, Arrivals: []float64{0.5, 2.5}})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "invariant violated") || !strings.Contains(msg, "billed") {
			t.Fatalf("ledger off by a dollar: recovered %q, want a conservation invariant panic", msg)
		}
	}()
	sim.checkConservation(st.TotalCost + 1)
	t.Fatal("a ledger that disagrees with the per-container sum passed the check")
}

// TestCheckReleasedCatchesLeftovers: the check made where a slot is vacated
// with its object kept fires for each kind of reference it scans for. No
// engine path leaves one behind (the fuzzers run this build), so each case
// plants it beside a request that completed at 1.1, or names the live
// container itself.
func TestCheckReleasedCatchesLeftovers(t *testing.T) {
	cases := []struct {
		name  string
		plant func(l *LiveEngine, r *Request) (*container, *Request)
	}{
		{"queued", func(l *LiveEngine, r *Request) (*container, *Request) {
			l.fnList[0].queue.Push(&r.prog[0].member)
			return nil, r
		}},
		{"in a batch", func(l *LiveEngine, r *Request) (*container, *Request) {
			l.conts[0].batch = append(l.conts[0].batch, &r.prog[0].member)
			return nil, r
		}},
		{"retry queued", func(l *LiveEngine, r *Request) (*container, *Request) {
			l.schedule(5, event{kind: evRetry, ref: r.ref})
			return nil, r
		}},
		{"container listed", func(l *LiveEngine, _ *Request) (*container, *Request) {
			return l.conts[0], nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := newLive(exactChain(1), keepAlive(60), 1, 1e9)
			r := l.Arrive(0)
			runTo(l, 2, nil)
			c, inv := tc.plant(l, r)
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "invariant violated") || !strings.Contains(msg, "released") {
					t.Fatalf("recovered %q, want a release invariant panic", msg)
				}
			}()
			l.checkReleased(c, inv)
			t.Fatal("a reference left behind passed the release check")
		})
	}
}
