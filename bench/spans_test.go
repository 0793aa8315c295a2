package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{name: "parent", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},
		{name: "b", start: 30, end: 60, parent: 0},    // overlaps a by 10
		{name: "c", start: 90, end: 130, parent: 0},   // sticks out by 30
		{name: "d", start: 35, end: 38, parent: 0},    // inside a∪b
		{name: "leaf", start: 12, end: 20, parent: 1}, // grandchild: a's, not parent's
		{name: "other", start: 0, end: 50, parent: -1},
	}
	self := selfTimes(spans)
	// Cover of parent: [10,60] ∪ [90,100] = 60.
	want := []int64{40, 22, 30, 40, 3, 8, 50}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, self[i], w)
		}
	}
}

func TestSelfTimeOfFullyCoveredSpanIsZero(t *testing.T) {
	spans := []span{
		{name: "p", start: 5, end: 25, parent: -1},
		{name: "x", start: 0, end: 15, parent: 0},
		{name: "y", start: 15, end: 40, parent: 0},
	}
	if self := selfTimes(spans); self[0] != 0 {
		t.Errorf("self = %d, want 0", self[0])
	}
}

func TestBeginEndBuildTheCallTree(t *testing.T) {
	l := newSpanLog()
	l.track = 3
	run := l.begin("simulator.Run")
	w1 := l.begin("controller.OnWindow")
	f := l.begin("forecast.Fit")
	l.end(f)
	l.end(w1)
	w2 := l.begin("controller.OnWindow")
	l.end(w2)
	l.end(run)
	parents := []int32{-1, run, w1, run}
	for i, p := range parents {
		if l.spans[i].parent != p {
			t.Errorf("span %d (%s): parent %d, want %d", i, l.spans[i].name, l.spans[i].parent, p)
		}
		if l.spans[i].end < l.spans[i].start {
			t.Errorf("span %d never ended", i)
		}
		if l.spans[i].track != 3 {
			t.Errorf("span %d: track %d, want 3", i, l.spans[i].track)
		}
	}
	if len(l.stack) != 0 {
		t.Errorf("stack not empty after the last end: %v", l.stack)
	}
	by := totalsByName(l.spans)
	if by["controller.OnWindow"].calls != 2 || by["forecast.Fit"].calls != 1 {
		t.Errorf("call counts: %+v", by)
	}
	if win := by["controller.OnWindow"]; win.self > win.busy || win.busy-win.self != by["forecast.Fit"].busy {
		t.Errorf("OnWindow busy %d − self %d should equal Fit busy %d", win.busy, win.self, by["forecast.Fit"].busy)
	}
}

// Untraced rounds pass a nil log through the same code.
func TestNilLogRecordsNothing(t *testing.T) {
	var l *spanLog
	id := l.begin("anything")
	l.end(id)
}

func TestChromeTraceIsLoadableJSON(t *testing.T) {
	spans := []span{
		{name: "request", start: 1000, end: 9000, parent: -1, track: 7},
		{name: "gateway.ServeHTTP", start: 2000, end: 8000, parent: 0, track: 7},
	}
	var buf bytes.Buffer
	if err := writeChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var events []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("not a JSON array of events: %v\n%s", err, buf.String())
	}
	if len(events) != 2 {
		t.Fatalf("%d events, want 2", len(events))
	}
	e := events[1]
	if e.Name != "gateway.ServeHTTP" || e.Ph != "X" || e.Ts != 2 || e.Dur != 6 || e.Tid != 7 {
		t.Errorf("event = %+v", e)
	}
	if e.Args["parent"] != float64(0) || events[0].Args["self_us"] != float64(2) {
		t.Errorf("args: %v / %v", e.Args, events[0].Args)
	}
}
