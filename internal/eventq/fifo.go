package eventq

// FIFO is the ready queue a function keeps in both executors: push at the
// back, pop at the front, in arrival order. The zero value is an empty queue.
//
// The live items are buf[head:]. Popping advances head instead of re-slicing
// the front away, which would shed capacity with every pop until the next
// push has to allocate; a queue that drains rewinds to the start of its
// buffer, and one that never quite drains copies its items down when the
// dead prefix is at least half the buffer, rather than growing. A queue in
// steady state therefore allocates nothing.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the back.
func (q *FIFO[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// Each calls f on every queued item, front to back.
func (q *FIFO[T]) Each(f func(T)) {
	for _, v := range q.buf[q.head:] {
		f(v)
	}
}

// Pop removes and returns the front item. It panics on an empty queue.
func (q *FIFO[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop the slot's references
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// PushFront puts vs, in order, ahead of everything queued.
func (q *FIFO[T]) PushFront(vs []T) {
	buf := make([]T, 0, len(vs)+q.Len())
	q.buf, q.head = append(append(buf, vs...), q.buf[q.head:]...), 0
}

// Filter keeps, in order, the items keep reports true for.
func (q *FIFO[T]) Filter(keep func(T) bool) {
	kept := q.buf[:0]
	for _, v := range q.buf[q.head:] {
		if keep(v) {
			kept = append(kept, v)
		}
	}
	clear(q.buf[len(kept):])
	q.buf, q.head = kept, 0
}
