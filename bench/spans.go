package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the log's epoch; parent is the index of the span that caused this
// one (-1 for a root); track groups the spans of one request or one round
// (it becomes the Chrome trace's thread id).
type span struct {
	name       string
	start, end int64
	parent     int32
	track      int32
}

func (s span) dur() int64 { return s.end - s.start }

// spanLog keeps spans in memory until the benchmark ends. begin/end maintain
// a parent stack and are for single-threaded call trees (the simulator and
// everything it calls); add appends a finished span with an explicit parent
// and is how the live workloads turn per-request timestamps into spans after
// the round. A nil *spanLog records nothing, so untraced rounds run the same
// code without the cost.
type spanLog struct {
	epoch time.Time
	spans []span
	stack []int32
	track int32
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

func (l *spanLog) begin(name string) int32 {
	if l == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{name: name, start: l.now(), end: -1, parent: parent, track: l.track})
	l.stack = append(l.stack, id)
	return id
}

func (l *spanLog) end(id int32) {
	if l == nil {
		return
	}
	l.spans[id].end = l.now()
	l.stack = l.stack[:len(l.stack)-1]
}

func (l *spanLog) add(name string, start, end int64, parent, track int32) int32 {
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{name: name, start: start, end: end, parent: parent, track: track})
	return id
}

// selfTimes returns, per span, its duration minus the part of its interval
// covered by its direct children. Children may overlap each other (two
// parallel branches) or stick out of the parent (a child that outlives the
// call that started it); the cover is the union of the children clipped to
// the parent, so nothing is subtracted twice.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, edge := int64(0), s.start
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < edge {
				lo = edge
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// nameTotals sums a per-span quantity by span name.
type nameTotals struct {
	calls int
	busy  int64 // Σ duration, ns
	self  int64 // Σ self time, ns
	max   int64
	durs  []float64 // µs, for percentiles
}

func totalsByName(spans []span) map[string]*nameTotals {
	self := selfTimes(spans)
	out := make(map[string]*nameTotals)
	for i, s := range spans {
		t := out[s.name]
		if t == nil {
			t = &nameTotals{}
			out[s.name] = t
		}
		d := s.dur()
		t.calls++
		t.busy += d
		t.self += self[i]
		if d > t.max {
			t.max = d
		}
		t.durs = append(t.durs, float64(d)/1e3)
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// loadable in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // µs
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as a JSON array of trace events. The id and
// parent of every span travel in args so a reader can rebuild the tree.
func writeChrome(w io.Writer, spans []span) error {
	self := selfTimes(spans)
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	for i, s := range spans {
		ev := chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.track,
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Args: map[string]any{"id": i, "parent": s.parent, "self_us": float64(self[i]) / 1e3},
		}
		b, err := json.Marshal(ev)
		if err != nil {
			return fmt.Errorf("encode span %d: %w", i, err)
		}
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
