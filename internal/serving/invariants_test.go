//go:build smiless_invariants

package serving

import (
	"context"
	"strings"
	"testing"

	"smiless/internal/simulator"
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
		if !ok || !strings.Contains(msg, "invariant violated") || !strings.Contains(msg, "slot 42") {
			t.Fatalf("panic payload %v lacks the formatted invariant message", r)
		}
	}()
	invariant(false, "slot %d", 42)
}

func TestInvariantHoldsSilently(t *testing.T) {
	invariant(true, "never formatted")
}

// scribbler breaks the ControlPlane history contract: it writes through the
// read-only arrival view.
type scribbler struct{ *staticDriver }

func (scribbler) OnWindow(cp simulator.ControlPlane, now float64) { cp.ArrivalTimes()[0] = -1 }

// TestHistoryGuardCatchesWriteThroughView: a window tick whose driver writes
// through a history view panics. The runtime is never started: the test
// goroutine begins the run and handles the tick itself, so the panic is
// recoverable.
func TestHistoryGuardCatchesWriteThroughView(t *testing.T) {
	clk := &setClock{}
	rt, err := New(Config{App: testChain([]float64{0.1}, 1.0), SLA: 10, Clock: clk}, scribbler{keepAliveDriver(1)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rt.eng.Begin()
	clk.now = 0.25
	if _, err := rt.Invoke(context.Background()); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "invariant violated") || !strings.Contains(msg, "history view") {
			t.Fatalf("window tick with a scribbling driver: recovered %q, want a history-view invariant panic", msg)
		}
	}()
	clk.now = 1
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.runDue()
}

// misbiller books a dollar no container owed at every window.
type misbiller struct{ *staticDriver }

func (misbiller) OnWindow(cp simulator.ControlPlane, now float64) { cp.Stats().TotalCost++ }

// TestConservationCatchesMisbilling: the end-of-run ledger check runs when
// either front end settles — the simulator at the end of Run, the runtime at
// Close — passes on a clean run and fires once a dollar is booked in the
// total that neither the CPU nor the GPU book holds. The billed-versus-owed
// branch, which no driver can reach, is the simulator package's test of the
// same name.
func TestConservationCatchesMisbilling(t *testing.T) {
	app := testChain([]float64{0.1, 0.2}, 1.0)
	frontEnds := []struct {
		name string
		run  func(simulator.Driver)
	}{
		{"simulator", func(d simulator.Driver) {
			simulator.MustNew(simulator.Config{App: app, SLA: 10, Seed: 1}, d).
				MustRun(&trace.Trace{Horizon: 10, Arrivals: []float64{0.5, 2.5}})
		}},
		{"serving", func(d simulator.Driver) {
			// Never started: the test goroutine plays the scheduler loop, so a
			// panic in Close is recoverable and leaves no goroutine behind.
			clk := &setClock{}
			rt, err := New(Config{App: app, SLA: 10, Clock: clk}, d)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			rt.eng.Begin()
			for _, at := range []float64{0.5, 2.5, 10} {
				for next, ok := rt.eng.NextAt(); ok && next <= at; next, ok = rt.eng.NextAt() {
					clk.now = next
					rt.runDue()
				}
				clk.now = at
				if at < 10 {
					if _, err := rt.Invoke(context.Background()); err != nil {
						t.Fatalf("Invoke: %v", err)
					}
				}
			}
			rt.Close()
		}},
	}
	for _, fe := range frontEnds {
		t.Run(fe.name, func(t *testing.T) {
			fe.run(keepAliveDriver(1)) // clean: settling must not panic
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "invariant violated") || !strings.Contains(msg, "books") {
					t.Fatalf("ledger off by a dollar per window: recovered %q, want a conservation invariant panic", msg)
				}
			}()
			fe.run(misbiller{keepAliveDriver(1)})
			t.Fatal("a ledger that disagrees with the per-container sum passed the check")
		})
	}
}
