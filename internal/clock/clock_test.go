package clock

import (
	"sync"
	"testing"
	"time"
)

// after arms a fresh timer on s for d seconds and returns the channel its
// function sends on.
func after(s Scheduler, d float64) <-chan struct{} {
	ch := make(chan struct{}, 1)
	s.NewTimer(func() { ch <- struct{}{} }).ResetAt(s.Now() + d)
	return ch
}

// sleep blocks until d seconds have passed on s (at once if d <= 0).
func sleep(s Scheduler, d float64) { <-after(s, d) }

func TestFakeAdvanceFiresInOrder(t *testing.T) {
	f := NewFake()
	var mu sync.Mutex
	var order []int

	var wg sync.WaitGroup
	for i, d := range []float64{3, 1, 2} {
		wg.Add(1)
		ch := after(f, d)
		go func(i int) {
			defer wg.Done()
			<-ch
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}(i)
	}
	if got := f.Waiters(); got != 3 {
		t.Fatalf("Waiters() = %d, want 3", got)
	}
	// Advancing one second at a time fires deadlines 1, 2, 3 in order.
	for i := 0; i < 3; i++ {
		f.Advance(1)
		// Let the fired goroutine record its index before the next step.
		waitFor(t, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(order) == i+1
		})
	}
	wg.Wait()
	if order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Fatalf("fire order = %v, want [1 2 0]", order)
	}
	if now := f.Now(); now != 3 {
		t.Fatalf("Now() = %v, want 3", now)
	}
}

func TestFakeAdvanceToNext(t *testing.T) {
	f := NewFake()
	if f.AdvanceToNext() {
		t.Fatal("AdvanceToNext with no waiters should report false")
	}
	ch := after(f, 5.5)
	if at, ok := f.NextDeadline(); !ok || at != 5.5 {
		t.Fatalf("NextDeadline = %v,%v, want 5.5,true", at, ok)
	}
	if !f.AdvanceToNext() {
		t.Fatal("AdvanceToNext should fire the pending timer")
	}
	select {
	case <-ch:
	default:
		t.Fatal("timer channel did not fire")
	}
	if now := f.Now(); now != 5.5 {
		t.Fatalf("Now() = %v, want 5.5", now)
	}
}

// AdvanceTo lands on exactly the instant asked for, firing what falls
// before it, where Advance by the difference rounds off it.
func TestFakeAdvanceToIsExact(t *testing.T) {
	f := NewFake()
	f.Advance(42.3)
	target := 253.99999999999997 // 42.3 + (target-42.3) rounds to 254
	ch := after(f, 2)
	f.AdvanceTo(target)
	if now := f.Now(); now != target {
		t.Fatalf("Now() = %v, want exactly %v", now, target)
	}
	select {
	case <-ch:
	default:
		t.Fatal("timer due on the way did not fire")
	}
}

// A timer armed for an instant already reached fires without an Advance, on
// a goroutine of its own.
func TestFakeNonPositiveAfterFiresImmediately(t *testing.T) {
	f := NewFake()
	select {
	case <-after(f, 0):
	case <-time.After(5 * time.Second):
		t.Fatal("a timer armed for now should fire immediately")
	}
	sleep(f, -1) // must not block
	if f.Now() != 0 {
		t.Fatalf("Now moved without Advance: %v", f.Now())
	}
}

func TestFakeSleepBlocksUntilAdvance(t *testing.T) {
	f := NewFake()
	done := make(chan struct{})
	go func() {
		sleep(f, 2)
		close(done)
	}()
	waitFor(t, func() bool { return f.Waiters() == 1 })
	select {
	case <-done:
		t.Fatal("sleep returned before Advance")
	default:
	}
	f.Advance(2)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("sleep did not return after Advance")
	}
}

// A fake timer is one slot however often it is re-armed.
func TestFakeTimerIsOneWaiter(t *testing.T) {
	f := NewFake()
	tm := f.NewTimer(func() {})
	for i := 1; i <= 100; i++ {
		tm.ResetAt(float64(i))
	}
	if got := f.Waiters(); got != 1 {
		t.Fatalf("Waiters() = %d after 100 ResetAts of one timer, want 1", got)
	}
	if at, _ := f.NextDeadline(); at != 100 {
		t.Fatalf("NextDeadline = %v, want the last ResetAt's 100", at)
	}
	tm.Stop()
	if got := f.Waiters(); got != 0 {
		t.Fatalf("Waiters() = %d after Stop, want 0", got)
	}
}

// TestTimer runs one body against every Scheduler. pass(d) lets d model
// seconds go by: the fake clock is advanced, the wall clocks are slept on.
// The timer's function sends on a channel with room for every fire the body
// leaves unreceived, so a fire never blocks the clock.
func TestTimer(t *testing.T) {
	// unit is the model-time step of the test, sized so that the wall
	// clocks wait 10 ms of real time for it.
	cases := []struct {
		name string
		unit float64
		mk   func() (Scheduler, func(d float64))
	}{
		{"Fake", 1, func() (Scheduler, func(float64)) {
			f := NewFake()
			return f, f.Advance
		}},
		{"Wall", 0.01, func() (Scheduler, func(float64)) {
			w := NewWall()
			return w, func(d float64) { sleep(w, d) }
		}},
		{"ScaledWall", 1, func() (Scheduler, func(float64)) {
			s := NewScaledWall(100)
			return s, func(d float64) { sleep(s, d) }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk, pass := tc.mk()
			u := tc.unit
			fires := make(chan struct{}, 4)
			tm := clk.NewTimer(func() { fires <- struct{}{} })
			defer tm.Stop()
			// reset arms tm d model seconds from the clock's reading.
			reset := func(d float64) { tm.ResetAt(clk.Now() + d) }
			fired := func() bool {
				select {
				case <-fires:
					return true
				default:
					return false
				}
			}
			// wait blocks for a fire that is due; real timers deliver it a
			// moment after their deadline.
			wait := func(what string) {
				t.Helper()
				select {
				case <-fires:
				case <-time.After(5 * time.Second):
					t.Fatalf("%s: no fire", what)
				}
			}

			if fired() {
				t.Fatal("a new timer fired before it was armed")
			}
			// Reset to an earlier deadline: fires at the new one.
			reset(1000 * u)
			reset(2 * u)
			start := clk.Now()
			pass(2 * u)
			wait("Reset earlier")
			if got := clk.Now() - start; got < 2*u {
				t.Errorf("fired %v after Reset(%v)", got, 2*u)
			}
			if fired() {
				t.Error("one Reset fired twice")
			}
			// Reset to a later deadline: the earlier one is gone.
			reset(2 * u)
			reset(6 * u)
			pass(3 * u)
			if fired() {
				t.Error("fired at the deadline a later Reset replaced")
			}
			pass(3 * u)
			wait("Reset later")
			// Stop: no fire, then or later.
			reset(2 * u)
			tm.Stop()
			pass(3 * u)
			if fired() {
				t.Error("fired after Stop")
			}
			// Re-arm after a fire nobody has received yet: one call per
			// Reset, the first one's already made and the second one's due
			// at its own deadline.
			reset(u)
			pass(2 * u)
			reset(3 * u)
			wait("Reset before the re-arm")
			if fired() {
				t.Error("a re-armed timer fired before its deadline")
			}
			pass(3 * u)
			wait("Reset after fire")
			// Non-positive: at once.
			reset(0)
			wait("Reset(0)")
			reset(-1)
			wait("Reset(-1)")

			f, ok := clk.(*Fake)
			if !ok {
				return
			}
			// An instant the clock has already passed: at once.
			at := f.Now()
			pass(u)
			tm.ResetAt(at)
			wait("ResetAt a passed instant")
			// The deadline is the instant asked for, to the bit, whatever
			// the clock read when it was armed: 42.3 + (target-42.3) would
			// round to 254.
			f.AdvanceTo(42.3)
			target := 253.99999999999997
			tm.ResetAt(target)
			if next, _ := f.NextDeadline(); next != target {
				t.Fatalf("armed for %v, want exactly %v", next, target)
			}
			f.AdvanceToNext()
			wait("ResetAt exact")
			if now := f.Now(); now != target {
				t.Errorf("fired at %v, want exactly %v", now, target)
			}
		})
	}
}

// A timer's function runs inside Advance with none of the clock's locks
// held: it reads Now at its own deadline to the bit, re-arms its timer and
// arms another, and whatever it arms that falls due by the advance's target
// fires in the same call, in deadline order. A ResetAt of an instant already
// reached, made while holding a lock the function takes, does not deadlock.
func TestFakeTimerReentrant(t *testing.T) {
	f := NewFake()
	type fire struct {
		name string
		at   float64
	}
	var fires []fire
	first := 0.1 + 0.2 // 0.30000000000000004: no round number to fall back on
	var a, b Timer
	a = f.NewTimer(func() {
		now := f.Now()
		fires = append(fires, fire{"a", now})
		if now == first {
			a.ResetAt(first + 2)
			b.ResetAt(first + 1)
		}
	})
	b = f.NewTimer(func() { fires = append(fires, fire{"b", f.Now()}) })
	a.ResetAt(first)
	f.Advance(10)
	want := []fire{{"a", first}, {"b", first + 1}, {"a", first + 2}}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Errorf("fire %d = %v, want %v (Now inside a fire is its deadline, to the bit)", i, fires[i], want[i])
		}
	}
	if now, n := f.Now(), f.Waiters(); now != 10 || n != 0 {
		t.Errorf("after Advance: Now() = %v, Waiters() = %d, want 10, 0", now, n)
	}

	var mu sync.Mutex
	ran := make(chan float64, 1)
	c := f.NewTimer(func() {
		mu.Lock()
		defer mu.Unlock()
		ran <- f.Now()
	})
	armed := make(chan struct{})
	go func() {
		mu.Lock()
		c.ResetAt(5) // already passed
		mu.Unlock()
		close(armed)
	}()
	select {
	case <-armed:
	case <-time.After(5 * time.Second):
		t.Fatal("ResetAt of a passed instant under a lock the function takes deadlocked")
	}
	select {
	case at := <-ran:
		if at != 10 {
			t.Errorf("passed-instant fire read Now() = %v, want 10", at)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ResetAt of a passed instant did not fire")
	}
}

func TestWallClock(t *testing.T) {
	w := NewWall()
	a := w.Now()
	<-after(w, 0.001)
	if b := w.Now(); b <= a {
		t.Fatalf("wall clock did not move: %v -> %v", a, b)
	}
	sleep(w, 0) // must not block
}

func TestScaledWall(t *testing.T) {
	s := NewScaledWall(100)
	start := time.Now()
	<-after(s, 0.5) // 0.5 model seconds = 5ms real
	if real := time.Since(start); real > 2*time.Second {
		t.Fatalf("a 0.5 s timer at 100x took %v real", real)
	}
	if now := s.Now(); now < 0.5 {
		t.Fatalf("Now() = %v after waiting 0.5 model seconds", now)
	}
	sleep(s, 0) // must not block
	if NewScaledWall(0).factor != 1 {
		t.Fatal("non-positive factor should default to 1")
	}
}

// waitFor polls cond with a real-time deadline; used only to synchronize
// test goroutines, never to advance fake time.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestMonotonic(t *testing.T) {
	a := Monotonic()
	if a < 0 {
		t.Fatalf("Monotonic() = %d before any work, want >= 0", a)
	}
	time.Sleep(2 * time.Millisecond)
	b := Monotonic()
	if b <= a {
		t.Fatalf("Monotonic did not advance across a sleep: %d then %d", a, b)
	}
	if c := Monotonic(); c < b {
		t.Fatalf("Monotonic went backwards: %d then %d", b, c)
	}
}
