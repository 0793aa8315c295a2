package clock

import (
	"slices"
	"sync"
	"time"
)

// Fake is a manually-advanced Scheduler for tests. Time moves only through
// Advance/AdvanceToNext, so a test covering minutes of serving latency runs
// in milliseconds and is immune to machine load. It is safe for concurrent
// use: runtime goroutines block on their timers while the test goroutine
// advances.
type Fake struct {
	mu  sync.Mutex
	now float64
	// armed holds the timers with a pending deadline: one slot per Timer,
	// however often it is re-armed, so Waiters counts sleepers, not the
	// wake-ups they ever asked for.
	armed []*fakeTimer
}

// fakeTimer is a Timer on a Fake clock; at is its deadline while it is in
// the clock's armed list.
type fakeTimer struct {
	f  *Fake
	c  chan time.Time
	at float64
}

// NewFake returns a fake clock at time zero.
func NewFake() *Fake { return &Fake{} }

// Now implements Clock.
func (f *Fake) Now() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// NewTimer implements Scheduler.
func (f *Fake) NewTimer() Timer { return &fakeTimer{f: f, c: make(chan time.Time, 1)} }

func (t *fakeTimer) C() <-chan time.Time { return t.c }

// ResetAt implements Timer: the timer fires when the fake time reaches at,
// exactly, or at once if it already has.
func (t *fakeTimer) ResetAt(at float64) {
	f := t.f
	f.mu.Lock()
	defer f.mu.Unlock()
	f.disarm(t)
	if at <= f.now {
		t.fire()
		return
	}
	t.at = at
	f.armed = append(f.armed, t)
}

// Stop implements Timer.
func (t *fakeTimer) Stop() {
	t.f.mu.Lock()
	defer t.f.mu.Unlock()
	t.f.disarm(t)
}

// disarm drops t's pending deadline and any fire its owner has not received;
// callers hold mu.
func (f *Fake) disarm(t *fakeTimer) {
	if i := slices.Index(f.armed, t); i >= 0 {
		f.armed = slices.Delete(f.armed, i, i+1)
	}
	drain(t.c)
}

// fire delivers one wake-up; callers hold mu. The send cannot block: a timer
// fires once per ResetAt, and ResetAt drained the channel.
func (t *fakeTimer) fire() {
	t.c <- time.Time{}
}

// Sleep implements Scheduler.
func (f *Fake) Sleep(d float64) {
	t := f.NewTimer()
	t.ResetAt(f.Now() + d)
	<-t.C()
}

// Advance moves the fake time forward by d seconds, firing every timer whose
// deadline falls within the advanced span (in deadline order).
func (f *Fake) Advance(d float64) {
	if d < 0 {
		panic("clock: negative advance")
	}
	f.mu.Lock()
	target := f.now + d
	f.advanceTo(target)
	f.mu.Unlock()
}

// AdvanceTo moves the fake time to exactly t, firing every timer whose
// deadline falls on the way (in deadline order) — Advance(t-Now()) may
// round. It panics if t is in the past.
func (f *Fake) AdvanceTo(t float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if t < f.now {
		panic("clock: advance into the past")
	}
	f.advanceTo(t)
}

// AdvanceToNext jumps the fake time to the earliest pending timer deadline
// and fires it (plus any timers sharing that deadline). It reports whether a
// timer was pending. Tests drive concurrent runtimes by looping:
// give goroutines a moment to arm their next timer, then jump.
func (f *Fake) AdvanceToNext() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	at, ok := f.nextDeadline()
	if !ok {
		return false
	}
	f.advanceTo(at)
	return true
}

// NextDeadline returns the earliest pending timer deadline, if any.
func (f *Fake) NextDeadline() (float64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nextDeadline()
}

// Waiters returns the number of armed timers.
func (f *Fake) Waiters() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.armed)
}

// nextDeadline scans the armed timers; callers hold mu.
func (f *Fake) nextDeadline() (float64, bool) {
	best, ok := 0.0, false
	for _, t := range f.armed {
		if !ok || t.at < best {
			best, ok = t.at, true
		}
	}
	return best, ok
}

// advanceTo fires due timers in deadline order; callers hold mu.
func (f *Fake) advanceTo(target float64) {
	for {
		at, ok := f.nextDeadline()
		if !ok || at > target {
			break
		}
		f.now = at
		rest := f.armed[:0]
		for _, t := range f.armed {
			if t.at <= f.now {
				t.fire()
			} else {
				rest = append(rest, t)
			}
		}
		clear(f.armed[len(rest):])
		f.armed = rest
	}
	if target > f.now {
		f.now = target
	}
}
