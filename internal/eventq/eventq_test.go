package eventq

import (
	"math/rand"
	"sort"
	"testing"
)

// ref is the specification: a slice kept in (time, push order) by a stable
// sort, popped from the front.
type ref struct {
	at float64
	id int
}

// replay drives a Queue and the reference with one interleaved push/pop
// script and reports the first divergence. Each script byte is an operation:
// the low bit selects pop, the rest a timestamp from a small grid so that
// duplicates are the common case.
func replay(t *testing.T, script []byte) {
	t.Helper()
	var q Queue[int]
	var want []ref
	floor := 0.0 // pushes never go into the past, as in both executors
	for i, b := range script {
		if b&1 == 1 && len(want) > 0 {
			at, id := q.Pop()
			w := want[0]
			want = want[1:]
			if at != w.at || id != w.id {
				t.Fatalf("op %d: popped (%v, #%d), want (%v, #%d)", i, at, id, w.at, w.id)
			}
			floor = at
			continue
		}
		at := floor + float64(b>>1)/4
		q.Push(at, i)
		want = append(want, ref{at, i})
		sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })
		if next, ok := q.NextAt(); !ok || next != want[0].at {
			t.Fatalf("op %d: NextAt = (%v, %t), want %v", i, next, ok, want[0].at)
		}
	}
	if q.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", q.Len(), len(want))
	}
	for _, w := range want {
		if at, id := q.Pop(); at != w.at || id != w.id {
			t.Fatalf("drain: popped (%v, #%d), want (%v, #%d)", at, id, w.at, w.id)
		}
	}
	if _, ok := q.NextAt(); ok {
		t.Fatal("NextAt reports an event on a drained queue")
	}
}

func TestMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		script := make([]byte, 1+r.Intn(400))
		for i := range script {
			script[i] = byte(r.Intn(256))
			if r.Intn(3) == 0 {
				script[i] &= 7 // a run of near-identical timestamps
			}
		}
		replay(t, script)
	}
}

func FuzzMatchesStableSort(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 1})
	f.Add([]byte{8, 2, 8, 2, 1, 6, 0, 1, 1, 1, 1})
	f.Add([]byte{254, 2, 1, 128, 3, 64, 64, 64, 1, 1})
	f.Fuzz(func(t *testing.T, script []byte) { replay(t, script) })
}

// A ticket drawn early ranks its event among same-instant events by when the
// ticket was drawn, not by when the entry was pushed.
func TestTicketKeepsItsRank(t *testing.T) {
	var q Queue[string]
	early := q.Ticket()
	q.Push(5, "pushed-after-ticket")
	q.Push(3, "earlier-time")
	q.PushTicket(5, early, "ticketed-first")
	q.Push(5, "pushed-last")
	var got []string
	for q.Len() > 0 {
		_, v := q.Pop()
		got = append(got, v)
	}
	want := []string{"earlier-time", "ticketed-first", "pushed-after-ticket", "pushed-last"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %q, want %q", got, want)
		}
	}
}

// Only a push into the past can make pops run backwards; invariant builds
// turn that into a panic for both executors.
func TestPopBackwardsPanicsUnderInvariants(t *testing.T) {
	if !invariantsEnabled {
		t.Skip("needs -tags smiless_invariants")
	}
	var q Queue[int]
	q.Push(2, 0)
	q.Pop()
	q.Push(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("popping 1.0 after 2.0 did not panic")
		}
	}()
	q.Pop()
}

func TestSteadyStateDoesNotAllocate(t *testing.T) {
	type payload struct {
		a, b *int
		n    int
	}
	var q Queue[payload]
	for i := 0; i < 64; i++ {
		q.Push(float64(i%7), payload{n: i})
	}
	now := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		at, v := q.Pop()
		now = at
		q.Push(now+float64(v.n%5), v)
	})
	if allocs != 0 {
		t.Fatalf("push+pop at steady state allocates %v times per run, want 0", allocs)
	}
}

// Pop leaves no reference behind in the heap entry it vacates.
func TestPopZeroesSlot(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 8; i++ {
		q.Push(float64(i), new(int))
	}
	for q.Len() > 4 {
		q.Pop()
	}
	for i, e := range q.h[q.Len():cap(q.h)] {
		if e.v != nil {
			t.Fatalf("vacated entry %d still holds %p", q.Len()+i, e.v)
		}
	}
}

// benchEvent mirrors the engine's event: 16 bytes and no pointer, so the
// heap moves it with plain copies.
type benchEvent struct {
	kind      uint8
	idx       int32
	slot, gen int32
}

func BenchmarkPushPop(b *testing.B) {
	var q Queue[benchEvent]
	for i := 0; i < 128; i++ {
		q.Push(float64(i%13), benchEvent{idx: int32(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at, v := q.Pop()
		q.Push(at+float64(i%11), v)
	}
}
