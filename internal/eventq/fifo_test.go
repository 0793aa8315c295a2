package eventq

import (
	"math/rand"
	"slices"
	"testing"
)

// The specification is a plain slice: append at the back, re-slice the front.
func TestFIFOMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		var q FIFO[int]
		var want []int
		next := 0
		for op := 0; op < 300; op++ {
			switch r := rng.Intn(20); {
			case r < 9:
				q.Push(next)
				want = append(want, next)
				next++
			case r < 17:
				if len(want) == 0 {
					continue
				}
				if got := q.Pop(); got != want[0] {
					t.Fatalf("round %d op %d: Pop = %d, want %d", round, op, got, want[0])
				}
				want = want[1:]
			case r < 18:
				front := []int{next, next + 1}
				next += 2
				q.PushFront(front)
				want = append(front, want...)
			default:
				drop := rng.Intn(3)
				keep := func(v int) bool { return v%3 != drop }
				q.Filter(keep)
				want = slices.DeleteFunc(want, func(v int) bool { return !keep(v) })
			}
			if q.Len() != len(want) {
				t.Fatalf("round %d op %d: Len = %d, want %d", round, op, q.Len(), len(want))
			}
		}
		for _, w := range want {
			if got := q.Pop(); got != w {
				t.Fatalf("round %d drain: Pop = %d, want %d", round, got, w)
			}
		}
	}
}

// A queue in steady state — drained now and then, or hovering at a few
// items without ever draining — allocates nothing.
func TestFIFOSteadyStateAllocatesNothing(t *testing.T) {
	var q FIFO[*int]
	v := new(int)
	for i := 0; i < 64; i++ { // reach the high-water mark
		q.Push(v)
	}
	for q.Len() > 3 {
		q.Pop()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		q.Push(v)
		q.Push(v)
		q.Pop()
		q.Pop()
	})
	if allocs != 0 {
		t.Errorf("hovering queue: %v allocations per push/pop cycle, want 0", allocs)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	allocs = testing.AllocsPerRun(1000, func() {
		q.Push(v)
		q.Pop()
	})
	if allocs != 0 {
		t.Errorf("draining queue: %v allocations per push/pop cycle, want 0", allocs)
	}
}
