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
// as long as it lives, and a fire is one call of the function the Timer was
// made with, so the owner needs no goroutine of its own to wait on it. A
// Timer is armed at an absolute instant on its clock, not a span from a
// reading, so whoever arms it needs no reading of its own and a clock that
// moves meanwhile cannot shift the wake-up. There is no fire-and-forget
// After: a wake-up nobody can cancel is a leak whenever the sleeper is woken
// by something else first.
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
	// NewTimer returns a stopped Timer on this clock that calls f on a fire.
	NewTimer(f func()) Timer
}

// Timer is a one-shot wake-up its owner arms again and again. At most one
// deadline is pending per Timer, and a fire is one call of its function,
// made with none of the clock's locks held: on a wall clock on a goroutine
// of its own, on a Fake inside the Advance that reaches the deadline.
//
// ResetAt and Stop may be called from any goroutine, provided the owner
// serialises them (the serving runtime calls them under its mutex, which the
// function takes). On a wall clock a fire already in flight when they are
// called may still run, and rounding the deadline to whole nanoseconds may
// fire one early, so a call means "look again", not "the deadline passed".
type Timer interface {
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
func (w *Wall) NewTimer(f func()) Timer { return newWallTimer(w.epoch, 1, f) }

// ScaledWall is a wall clock that runs Factor× faster than real time: Now
// returns Factor·(real seconds since epoch) and timers wait d/Factor real
// seconds for d model seconds. It lets the serving runtime replay
// multi-minute workloads in seconds of wall time (smoke tests, demos) while
// keeping every model-time quantity — latencies, keep-alives, windows —
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
func (s *ScaledWall) NewTimer(f func()) Timer { return newWallTimer(s.epoch, s.factor, f) }

// wallTimer is the Timer of Wall and ScaledWall: one time.AfterFunc timer,
// made stopped, that every ResetAt and Stop re-arms or disarms, so a fire is
// one call of f on a goroutine of its own and a Reset leaves nothing behind
// in the runtime's timer heap.
type wallTimer struct {
	t      *time.Timer
	epoch  time.Time // the clock's epoch: model time 0
	factor float64   // model seconds per real second
}

func newWallTimer(epoch time.Time, factor float64, f func()) *wallTimer {
	t := time.AfterFunc(time.Hour, f) //lint:allow clockhygiene one timer per owner, made stopped here, re-armed and stopped through Timer
	t.Stop()
	return &wallTimer{t: t, epoch: epoch, factor: factor}
}

func (w *wallTimer) ResetAt(at float64) {
	w.t.Reset(time.Until(w.epoch.Add(duration(at / w.factor))))
}

func (w *wallTimer) Stop() { w.t.Stop() }

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
// overflowing for absurd inputs. Non-positive seconds give 0.
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
