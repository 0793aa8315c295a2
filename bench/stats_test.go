package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileInterpolates(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {1, 40}, {-1, 10}, {2, 40},
		{0.5, 25},        // even count: mean of the middle two
		{1.0 / 3, 20},    // exactly on a rank
		{0.9, 37},        // 0.9·3 = 2.7 → 30 + 0.7·10
		{0.25, 17.5},     // 0.75 between ranks 0 and 1
		{0.999, 39.97},   // close to the top
		{0.0001, 10.003}, // close to the bottom
	}
	for _, c := range cases {
		if got := quantile(sorted, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample: got %v, want 7", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("no samples: got %v, want NaN", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{5, 1, 4}
	if got := median(xs); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 4 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median([]float64{8, 2, 4, 6}); got != 5 {
		t.Errorf("even median = %v, want 5", got)
	}
}

// An episode of interference that covers most of a run must not move a
// timing metric: that is what taking the fastest round is for, and what the
// median over rounds cannot do.
func TestFastestOfRoundsIgnoresAnEpisode(t *testing.T) {
	rounds := []round{
		{completed: 1000, use: usage{wallS: 1.40}}, // a neighbour woke up
		{completed: 1000, use: usage{wallS: 1.55}},
		{completed: 1000, use: usage{wallS: 1.00}},
		{completed: 1000, use: usage{wallS: 1.30}},
		{completed: 1000, use: usage{wallS: 1.01}},
	}
	perReq := func(r round) float64 { return r.use.wallS / float64(r.completed) }
	if got := fastestOf(rounds, perReq); got != 1.00/1000 {
		t.Errorf("fastest s/req = %v, want %v", got, 1.00/1000)
	}
	if got := medianOf(rounds, perReq); got != 1.30/1000 {
		t.Errorf("median s/req = %v, want %v", got, 1.30/1000)
	}
	if got := fastestOf([]round(nil), perReq); !math.IsNaN(got) {
		t.Errorf("no rounds: got %v, want NaN", got)
	}
}

func TestReadingDeltas(t *testing.T) {
	t0 := time.Unix(100, 0)
	a := reading{wall: t0, cpu: 2 * time.Second, mallocs: 1000, bytes: 1 << 20, gcCycles: 7, gcPauseNs: 3e6, gcCPUSec: 0.5, heapSys: 64 << 20}
	b := reading{wall: t0.Add(1500 * time.Millisecond), cpu: 4500 * time.Millisecond, mallocs: 4000, bytes: 3 << 20, gcCycles: 12, gcPauseNs: 8e6, gcCPUSec: 0.75, heapSys: 96 << 20}
	u := b.since(a)
	if u.wallS != 1.5 || u.cpuS != 2.5 {
		t.Errorf("wall/cpu = %v/%v, want 1.5/2.5", u.wallS, u.cpuS)
	}
	if u.mallocs != 3000 || u.bytes != 2<<20 || u.gcCycles != 5 {
		t.Errorf("mallocs/bytes/gc = %v/%v/%v, want 3000/%v/5", u.mallocs, u.bytes, u.gcCycles, 2<<20)
	}
	if u.gcPauseMs != 5 || u.gcCPUS != 0.25 {
		t.Errorf("gc pause/cpu = %v/%v, want 5/0.25", u.gcPauseMs, u.gcCPUS)
	}
	if u.heapSysMB != 96 {
		t.Errorf("heap = %v MB, want the end reading's 96", u.heapSysMB)
	}
}

// The live readings must move in the right direction by about the right
// amount when the process does known work.
func TestTakeReadingSeesWork(t *testing.T) {
	a := takeReading()
	sink := make([][]byte, 0, 1000)
	for i := 0; i < 1000; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	deadline := time.Now().Add(20 * time.Millisecond)
	for time.Now().Before(deadline) {
	}
	u := takeReading().since(a)
	if len(sink) != 1000 {
		t.Fatal("allocation loop did not run")
	}
	if u.mallocs < 1000 || u.bytes < 1000*1024 {
		t.Errorf("1000 × 1 KiB allocated, reading saw %d mallocs / %d bytes", u.mallocs, u.bytes)
	}
	if u.wallS < 0.02 || u.cpuS < 0.01 {
		t.Errorf("20 ms of spinning, reading saw %v s wall / %v s cpu", u.wallS, u.cpuS)
	}
}

func TestPerReqGuardsEmptyRounds(t *testing.T) {
	if got := perReq(10, 0); got != 0 {
		t.Errorf("perReq(10, 0) = %v, want 0", got)
	}
	if got := perReq(10, 4); got != 2.5 {
		t.Errorf("perReq(10, 4) = %v, want 2.5", got)
	}
}
