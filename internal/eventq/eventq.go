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
// Each heap entry holds its payload beside its (time, ticket) key, so moving
// an entry is one plain copy: T should be small and pointer-free (the
// engine's event is 16 bytes), else every sift step pays a GC write barrier.
// There is no container/heap interface and no boxing, and once the heap has
// grown to the run's high-water mark no event allocates.
//
//lint:deterministic
package eventq

import "fmt"

// entry is a heap entry: when the event is due, its same-instant rank, and
// the event.
type entry[T any] struct {
	at     float64
	ticket uint64
	v      T
}

func (a *entry[T]) before(b *entry[T]) bool {
	if a.at != b.at { //lint:allow floateq exact tie-break: only bit-identical timestamps fall through to ticket order
		return a.at < b.at
	}
	return a.ticket < b.ticket
}

// Queue is a min-heap of T ordered on (time, ticket). The zero value is an
// empty queue.
type Queue[T any] struct {
	h       []entry[T]
	tickets uint64
	lastPop float64 // read and written only in smiless_invariants builds
}

// Len returns the number of queued events.
func (q *Queue[T]) Len() int { return len(q.h) }

// Each calls f on every queued event, in no particular order.
func (q *Queue[T]) Each(f func(T)) {
	for i := range q.h {
		f(q.h[i].v)
	}
}

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
	k := entry[T]{at, ticket, v}
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
	q.h[n] = entry[T]{} // drop the vacated entry's references
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
	return top.at, top.v
}
