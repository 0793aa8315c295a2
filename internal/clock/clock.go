// Package clock is the shared time contract between the deterministic
// discrete-event simulator and the wall-clock serving runtime.
//
// Both worlds measure time as float64 seconds since an epoch: the simulator's
// epoch is the start of the trace, the serving runtime's is process start.
// Drivers and runtimes written against Clock/Scheduler work unchanged in
// either world:
//
//   - *simulator.Simulator satisfies Clock structurally (its Now() is the
//     virtual event-loop time). The simulator package never imports this one,
//     so its //lint:deterministic tag is unaffected.
//   - Wall is the production Scheduler: monotonic wall-clock time and real
//     timers; ScaledWall is the same clock run Factor× faster.
//   - Fake is the test Scheduler: time advances only when the test says so,
//     letting concurrent serving tests cover minutes of simulated latency in
//     milliseconds of real time without sleeping.
//
// A Scheduler hands out wake-ups as Timers: one value its owner re-arms for
// as long as it lives, so a goroutine that sleeps until "the next deadline"
// a million times costs the clock one timer, not a million. A Timer is armed
// at an absolute instant on its clock, not a span from a reading, so whoever
// arms it needs no reading of its own and a clock that moves meanwhile cannot
// shift the wake-up. There is no fire-and-forget After: a wake-up nobody can
// cancel is a leak whenever the sleeper is woken by something else first.
package clock

import "time"

// Clock is a read-only time source. Now returns seconds since the clock's
// epoch; it is monotonic and starts at (or near) zero.
type Clock interface {
	Now() float64
}

// Scheduler is a Clock that can also schedule future wake-ups. It is the
// contract the serving runtime's event loop — and through it batch
// aggregation windows, keep-alive deadlines and the decision-window cadence —
// is written against. All methods are safe for concurrent use.
type Scheduler interface {
	Clock
	// NewTimer returns a stopped Timer on this clock.
	NewTimer() Timer
	// Sleep blocks until d seconds have elapsed (immediately if d <= 0).
	Sleep(d float64)
}

// Timer is a one-shot wake-up its owner arms again and again. At most one
// deadline is pending per Timer, and a fire is one value on C.
//
// ResetAt and Stop may be called from any goroutine, provided the owner
// serialises them (the serving runtime calls them under its mutex); they
// discard an undelivered fire. After either returns, no fire for an earlier
// deadline is left on C — on a wall clock with one exception the receiver
// must tolerate: a fire already in flight on another thread may still land,
// and rounding the deadline to whole nanoseconds may fire one early, so a
// receive from C means "look again", not "the deadline passed".
type Timer interface {
	// C returns the channel fires are delivered on. It has room for one
	// value, so firing never blocks the clock.
	C() <-chan time.Time
	// ResetAt arms the timer to fire once, when the clock reads at (at
	// once if it already has), replacing any pending deadline.
	ResetAt(at float64)
	// Stop disarms the timer.
	Stop()
}

// Wall is the production Scheduler: real time measured monotonically from
// the moment NewWall was called.
type Wall struct {
	epoch time.Time
}

// NewWall returns a wall clock whose epoch is now.
func NewWall() *Wall { return &Wall{epoch: time.Now()} }

// Now implements Clock.
func (w *Wall) Now() float64 { return time.Since(w.epoch).Seconds() }

// NewTimer implements Scheduler.
func (w *Wall) NewTimer() Timer { return newWallTimer(w.epoch, 1) }

// Sleep implements Scheduler.
func (w *Wall) Sleep(d float64) { time.Sleep(duration(d)) }

// ScaledWall is a wall clock that runs Factor× faster than real time: Now
// returns Factor·(real seconds since epoch) and timers and Sleep wait
// d/Factor real seconds for d model seconds. It lets the serving runtime
// replay multi-minute workloads in seconds of wall time (smoke tests, demos)
// while keeping every model-time quantity — latencies, keep-alives, windows —
// at its real value. Factor 1 is an ordinary wall clock.
type ScaledWall struct {
	epoch  time.Time
	factor float64
}

// NewScaledWall returns a scaled wall clock whose epoch is now. A
// non-positive factor is treated as 1.
func NewScaledWall(factor float64) *ScaledWall {
	if factor <= 0 {
		factor = 1
	}
	return &ScaledWall{epoch: time.Now(), factor: factor}
}

// Now implements Clock.
func (s *ScaledWall) Now() float64 { return time.Since(s.epoch).Seconds() * s.factor }

// NewTimer implements Scheduler.
func (s *ScaledWall) NewTimer() Timer { return newWallTimer(s.epoch, s.factor) }

// Sleep implements Scheduler.
func (s *ScaledWall) Sleep(d float64) { time.Sleep(duration(d / s.factor)) }

// wallTimer is the Timer of Wall and ScaledWall: one time.Timer, whose
// channel the runtime's timer code sends on directly — no goroutine per
// fire, and nothing left behind in the runtime's timer heap by a Reset.
type wallTimer struct {
	t      *time.Timer
	epoch  time.Time // the clock's epoch: model time 0
	factor float64   // model seconds per real second
}

func newWallTimer(epoch time.Time, factor float64) *wallTimer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &wallTimer{t: t, epoch: epoch, factor: factor}
}

func (w *wallTimer) C() <-chan time.Time { return w.t.C }

func (w *wallTimer) ResetAt(at float64) {
	w.Stop()
	w.t.Reset(time.Until(w.epoch.Add(duration(at / w.factor))))
}

// Stop is written for the timer channels of go ≤ 1.22 (what both go.mod files
// select): a timer that already fired keeps its value buffered on C, so stop,
// then drain without blocking. Under the later unbuffered semantics the
// drain finds nothing and is harmless.
func (w *wallTimer) Stop() {
	if !w.t.Stop() {
		drain(w.t.C)
	}
}

// drain discards a fire the timer's owner has not received, if there is one.
func drain(c <-chan time.Time) {
	select {
	case <-c:
	default:
	}
}

// monotonicEpoch anchors Monotonic: readings are deltas against a single
// process-lifetime instant, so they are monotone and comparable but carry no
// absolute wall-clock meaning.
var monotonicEpoch = time.Now()

// Monotonic returns nanoseconds elapsed since process start, read from the
// runtime's monotonic clock. It is the sanctioned wall-nanos source for
// measurement-only instrumentation (search timings, experiment stopwatches):
// code outside this package must not call time.Now directly — the
// clockhygiene analyzer enforces that everything routes through either a
// Scheduler (behavioral time) or Monotonic (measurement time), keeping
// fake-clock and scaled-wall runs exact.
func Monotonic() int64 { return int64(time.Since(monotonicEpoch)) }

// duration converts seconds to time.Duration, saturating instead of
// overflowing for absurd inputs. Non-positive seconds give 0, which
// time.Sleep treats as "now".
func duration(seconds float64) time.Duration {
	const maxSeconds = float64(1<<62) / float64(time.Second)
	if seconds <= 0 {
		return 0
	}
	if seconds > maxSeconds {
		return 1 << 62
	}
	return time.Duration(seconds * float64(time.Second))
}
