package clock

import (
	"slices"
	"sync"
)

// Fake is a manually-advanced Scheduler for tests. Time moves only through
// Advance/AdvanceTo/AdvanceToNext, which call each due timer's function on
// the advancing goroutine, so a test covering minutes of serving latency runs
// in milliseconds and is immune to machine load. It is safe for concurrent
// use.
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
	fn func()
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
func (f *Fake) NewTimer(fn func()) Timer { return &fakeTimer{f: f, fn: fn} }

// ResetAt implements Timer: the timer fires when the fake time reaches at,
// exactly. An instant already reached fires at once, on a goroutine of its
// own, because the caller may hold a lock the function takes.
func (t *fakeTimer) ResetAt(at float64) {
	f := t.f
	f.mu.Lock()
	defer f.mu.Unlock()
	f.disarm(t)
	if at <= f.now {
		go t.fn()
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

// disarm drops t's pending deadline; callers hold mu.
func (f *Fake) disarm(t *fakeTimer) {
	if i := slices.Index(f.armed, t); i >= 0 {
		f.armed = slices.Delete(f.armed, i, i+1)
	}
}

// Advance moves the fake time forward by d seconds, firing every timer whose
// deadline falls within the advanced span (see advanceTo).
func (f *Fake) Advance(d float64) {
	if d < 0 {
		panic("clock: negative advance")
	}
	f.mu.Lock()
	target := f.now + d
	f.mu.Unlock()
	f.advanceTo(target)
}

// AdvanceTo moves the fake time to exactly t, firing every timer whose
// deadline falls on the way (see advanceTo) — Advance(t-Now()) may round. It
// panics if t is in the past.
func (f *Fake) AdvanceTo(t float64) {
	if t < f.Now() {
		panic("clock: advance into the past")
	}
	f.advanceTo(t)
}

// AdvanceToNext jumps the fake time to the earliest pending timer deadline
// and fires it (plus any timers sharing that deadline). It reports whether a
// timer was pending.
func (f *Fake) AdvanceToNext() bool {
	at, ok := f.NextDeadline()
	if ok {
		f.advanceTo(at)
	}
	return ok
}

// NextDeadline returns the earliest pending timer deadline, if any.
func (f *Fake) NextDeadline() (float64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if t := f.earliest(); t != nil {
		return t.at, true
	}
	return 0, false
}

// Waiters returns the number of armed timers.
func (f *Fake) Waiters() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.armed)
}

// earliest returns the armed timer with the earliest deadline, on a tie the
// one armed first, or nil; callers hold mu.
func (f *Fake) earliest() *fakeTimer {
	var best *fakeTimer
	for _, t := range f.armed {
		if best == nil || t.at < best.at {
			best = t
		}
	}
	return best
}

// advanceTo fires, one at a time in deadline order, every timer due by
// target, then stands the clock on target. Each function runs on the calling
// goroutine with the fake time at its deadline and mu released, so it may
// read the clock and arm timers, itself included; one it arms due by target
// fires in the same call.
func (f *Fake) advanceTo(target float64) {
	for {
		f.mu.Lock()
		t := f.earliest()
		if t == nil || t.at > target {
			f.now = max(f.now, target)
			f.mu.Unlock()
			return
		}
		f.disarm(t)
		f.now = t.at
		f.mu.Unlock()
		t.fn()
	}
}
