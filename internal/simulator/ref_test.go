package simulator

import (
	"reflect"
	"testing"
)

// An event is at most 16 bytes and holds no pointer: the queue's heap moves
// it with plain copies, and the GC never scans it.
func TestEventIsPointerFree(t *testing.T) {
	var holdsPointer func(reflect.Type) bool
	holdsPointer = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Float32, reflect.Float64:
			return false
		case reflect.Array:
			return holdsPointer(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if holdsPointer(typ.Field(i).Type) {
					return true
				}
			}
			return false
		}
		return true
	}
	typ := reflect.TypeOf(event{})
	if typ.Size() > 16 || holdsPointer(typ) {
		t.Errorf("event is %d bytes, pointer-free %t; want at most 16 and no pointer", typ.Size(), !holdsPointer(typ))
	}
}

// reuseContainer runs container X through one life — a cold start at 0, one
// request at 1, then idle — terminates it at 2 and admits a request, which
// launches into X's slot: X's next life, which initializes 2–3 and runs the
// request 3–3.1 beside a pre-warmed Z that idles from 3. It runs to at and
// returns the first life's ref and X.
func reuseContainer(t *testing.T, l *LiveEngine, at float64) (Ref, *container) {
	l.Arrive(0)
	runTo(l, 2, nil)
	x := l.fnList[0].containers[0]
	old := x.ref
	l.terminate(x)
	l.Arrive(0)
	l.EnsureInstances("F1", 2)
	if l.fnList[0].containers[0] != x || x.ref != (Ref{old.slot, old.gen + 1}) {
		t.Fatalf("the next launch did not take the terminated container's slot: ref %v, was %v", x.ref, old)
	}
	runTo(l, at, nil)
	return old, x
}

// containerEvent reaches X's next life in state at at and returns an event
// of kind queued for X's first life, with its object. A batch or idle event
// carries the next life's own counter, so only the generation tells the two
// apart. An idle event is delivered on the next life's keep-alive deadline.
func containerEvent(kind eventKind, at float64, state int) func(*testing.T, *LiveEngine) (event, any) {
	return func(t *testing.T, l *LiveEngine) (event, any) {
		old, x := reuseContainer(t, l, at)
		if x.state != state {
			t.Fatalf("X's next life is in state %d at %v, want %d", x.state, at, state)
		}
		idx := x.batchSeq
		if kind == evIdleTimeout {
			idx = x.timerGen
			l.SetNow(x.idleAt)
		}
		return event{kind: kind, idx: idx, ref: old}, x
	}
}

// requestEvent completes request R (cold start at 0, done at 1.1) and admits
// at 2 the next request, which takes R's slot and object and runs on the warm
// instance; it returns an event of kind queued for R, with the next request.
func requestEvent(kind eventKind) func(*testing.T, *LiveEngine) (event, any) {
	return func(t *testing.T, l *LiveEngine) (event, any) {
		r := l.Arrive(0)
		old := r.ref
		runTo(l, 2, nil)
		if next := l.Arrive(0); next != r || next.ref != (Ref{old.slot, old.gen + 1}) || next.resolved {
			t.Fatalf("the next arrival did not take the completed request's slot and object: ref %v, was %v", next.ref, old)
		}
		return event{kind: kind, ref: old}, r
	}
}

// lingerEvent warms the instance, fills a batch at 5–5.1 (the first request
// opens a linger window, the full batch closes it) and at 6 opens the next
// window; it returns a linger event for the closed window, with the
// function.
func lingerEvent(t *testing.T, l *LiveEngine) (event, any) {
	l.linger = 0.5
	for _, at := range []float64{0, 5, 5.1, 6} {
		runTo(l, at, nil)
		l.Arrive(0)
	}
	fs := l.fnList[0]
	if !fs.lingerArmed {
		t.Fatal("no linger window open at 6")
	}
	return event{kind: evLinger, ref: Ref{int32(fs.idx), fs.lingerEpoch - 1}}, fs
}

// An event queued for one life of a slot changes nothing when it reaches the
// slot's next life, whatever its kind and however it arrives: dispatched,
// replayed by a healed partition, or — the serving runtime's context watch —
// an abandon. Each case builds the same engine twice, hands the stale event
// to one, and requires the slot's object and the run's statistics to match
// the other's, then and after both run on.
func TestStaleEventChangesNothing(t *testing.T) {
	batched := keepAlive(60)
	batched.Batch = 2
	dispatch := func(l *LiveEngine, ev event) { l.dispatch(&ev) }
	cases := []struct {
		name    string
		dir     Directive
		reach   func(*testing.T, *LiveEngine) (event, any)
		deliver func(*LiveEngine, event)
	}{
		{"init-done", keepAlive(60), containerEvent(evInitDone, 2, cInitializing), dispatch},
		{"init-fail", keepAlive(60), containerEvent(evInitFail, 2, cInitializing), dispatch},
		{"exec-done", keepAlive(60), containerEvent(evExecDone, 3, cBusy), dispatch},
		{"exec-fail", keepAlive(60), containerEvent(evExecFail, 3, cBusy), dispatch},
		{"exec-timeout", keepAlive(60), containerEvent(evExecTimeout, 3, cBusy), dispatch},
		{"hedge", keepAlive(60), containerEvent(evHedge, 3, cBusy), dispatch},
		{"idle-timeout", keepAlive(60), containerEvent(evIdleTimeout, 63, cIdle), dispatch},
		{"held-exec-done", keepAlive(60), containerEvent(evExecDone, 3, cBusy), func(l *LiveEngine, ev event) {
			l.PartitionNode(0, true)
			l.nodes[0].held = append(l.nodes[0].held, ev)
			l.PartitionNode(0, false)
		}},
		{"deadline", keepAlive(60), requestEvent(evDeadline), dispatch},
		{"retry", keepAlive(60), requestEvent(evRetry), dispatch},
		{"abandon", keepAlive(60), requestEvent(evDeadline), func(l *LiveEngine, ev event) { l.Abandon(ev.ref) }},
		{"linger", batched, lingerEvent, dispatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, ctl := newLive(exactChain(1), tc.dir, 1, 1e9), newLive(exactChain(1), tc.dir, 1, 1e9)
			ev, obj := tc.reach(t, l)
			_, want := tc.reach(t, ctl)
			tc.deliver(l, ev)
			if !reflect.DeepEqual(obj, want) || !reflect.DeepEqual(*l.stats, *ctl.stats) {
				t.Fatalf("the stale event changed the slot's next life or the run's statistics")
			}
			runTo(l, 200, nil)
			runTo(ctl, 200, nil)
			if !reflect.DeepEqual(*l.stats, *ctl.stats) {
				t.Errorf("after the stale event the run diverged:\n got %s\nwant %s", l.stats.Summary(), ctl.stats.Summary())
			}
		})
	}
}
