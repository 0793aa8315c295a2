// Package eventq is the executor engine's future-event queue
// (internal/simulator's Engine, which the discrete-event simulator drives in
// virtual time and the serving runtime against a clock). It owns the
// same-instant order of queued events:
//
//	events pop by ascending time; events on one bit-identical timestamp pop
//	in ticket order, and a ticket is drawn when the event is pushed — or
//	earlier, by Ticket, for an occurrence decided now whose queue entry is
//	pushed later (a keep-alive deadline keeps the rank of the instant it was
//	armed however often its entry is re-pushed).
//
// The heap sifts pointer-free keys — (time, ticket, slot) — so moving an
// entry is a plain copy with no GC write barrier, however many pointers T
// holds. Payloads sit in a slab indexed by slot, written once on Push and
// zeroed on Pop so the queue keeps no references; freed slots are reused.
// There is no container/heap interface and no boxing, and once the heap and
// the slab have grown to the run's high-water mark no event allocates.
//
//lint:deterministic
package eventq

import "fmt"

// key is a heap entry: when the event is due, its same-instant rank, and
// the slab slot holding its payload.
type key struct {
	at     float64
	ticket uint64
	slot   int32
}

func (a *key) before(b *key) bool {
	if a.at != b.at { //lint:allow floateq exact tie-break: only bit-identical timestamps fall through to ticket order
		return a.at < b.at
	}
	return a.ticket < b.ticket
}

// Queue is a min-heap of T ordered on (time, ticket). The zero value is an
// empty queue.
type Queue[T any] struct {
	h       []key
	vals    []T     // payload slab, indexed by key.slot
	free    []int32 // vacant slots of vals
	tickets uint64
	lastPop float64 // read and written only in smiless_invariants builds
}

// Len returns the number of queued events.
func (q *Queue[T]) Len() int { return len(q.h) }

// Ticket draws the next same-instant rank without pushing anything.
func (q *Queue[T]) Ticket() uint64 {
	q.tickets++
	return q.tickets
}

// Push queues v at time at, ranked after everything pushed or ticketed so
// far on the same timestamp.
func (q *Queue[T]) Push(at float64, v T) { q.PushTicket(at, q.Ticket(), v) }

// PushTicket queues v at time at under a rank drawn earlier with Ticket.
func (q *Queue[T]) PushTicket(at float64, ticket uint64, v T) {
	var slot int32
	if n := len(q.free); n > 0 {
		slot, q.free = q.free[n-1], q.free[:n-1]
		q.vals[slot] = v
	} else {
		slot = int32(len(q.vals))
		q.vals = append(q.vals, v)
	}
	k := key{at, ticket, slot}
	q.h = append(q.h, k)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.before(&q.h[parent]) {
			break
		}
		q.h[i] = q.h[parent]
		i = parent
	}
	q.h[i] = k
}

// NextAt returns the time of the earliest event; ok is false when the queue
// is empty.
func (q *Queue[T]) NextAt() (at float64, ok bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].at, true
}

// Pop removes and returns the earliest event and its time. It panics on an
// empty queue. Builds tagged smiless_invariants also panic if a pop ever
// runs backwards in time, which only a push into the past can cause.
func (q *Queue[T]) Pop() (at float64, v T) {
	top := q.h[0]
	n := len(q.h) - 1
	k := q.h[n]
	q.h = q.h[:n]
	if n > 0 {
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if r := child + 1; r < n && q.h[r].before(&q.h[child]) {
				child = r
			}
			if !q.h[child].before(&k) {
				break
			}
			q.h[i] = q.h[child]
			i = child
		}
		q.h[i] = k
	}
	if invariantsEnabled {
		if top.at < q.lastPop {
			panic(fmt.Sprintf("eventq: invariant violated: popped %.9f after %.9f", top.at, q.lastPop))
		}
		q.lastPop = top.at
	}
	v = q.vals[top.slot]
	var zero T
	q.vals[top.slot] = zero // drop the slot's references
	q.free = append(q.free, top.slot)
	return top.at, v
}
