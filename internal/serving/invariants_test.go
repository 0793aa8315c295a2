//go:build smiless_invariants

package serving

import (
	"strings"
	"testing"

	"smiless/internal/simulator"
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
// through a history view panics. The tick is dispatched on the test's own
// goroutine (the runtime is never started), so the panic is recoverable.
func TestHistoryGuardCatchesWriteThroughView(t *testing.T) {
	rt, err := New(Config{App: testChain([]float64{0.1}, 1.0), SLA: 10}, scribbler{keepAliveDriver(1)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rt.arrivalTimes = []float64{0.25, 0.5}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "invariant violated") || !strings.Contains(msg, "history view") {
			t.Fatalf("window tick with a scribbling driver: recovered %q, want a history-view invariant panic", msg)
		}
	}()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.handle(event{kind: evWindow})
}
