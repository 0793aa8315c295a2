package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the p-quantile (0 ≤ p ≤ 1) of an ascending slice by
// linear interpolation between the two nearest ranks. The bench owns this
// arithmetic instead of borrowing internal/mathx so that a change to the
// program under test cannot move the instrument.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the 0.5-quantile of an unsorted slice: with an even count, the
// mean of the two middle values.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// medianOf applies f to every round and returns the median of the results.
func medianOf[T any](rounds []T, f func(T) float64) float64 {
	vals := make([]float64, len(rounds))
	for i, r := range rounds {
		vals[i] = f(r)
	}
	return median(vals)
}

// fastestOf applies f, a time or a time per request, to every round and
// returns the smallest result: the round the machine disturbed least. What
// disturbs a round on a shared host (a busy SMT sibling, a neighbour's cache
// traffic) only ever adds time, comes in episodes of seconds and can cover
// most of a run, so the median over rounds moves with it and the minimum does
// not (NOISE.md, study 5).
func fastestOf[T any](rounds []T, f func(T) float64) float64 {
	best := math.NaN()
	for i, r := range rounds {
		if v := f(r); i == 0 || v < best {
			best = v
		}
	}
	return best
}

// reading is one snapshot of the process-wide counters a round is charged
// against. Taking one stops the world (ReadMemStats), so readings are taken
// only at round boundaries.
type reading struct {
	wall      time.Time
	cpu       time.Duration // getrusage user+sys of the whole process
	mallocs   uint64
	bytes     uint64
	gcCycles  uint32
	gcPauseNs uint64
	gcCPUSec  float64 // runtime/metrics estimate, cumulative
	heapSys   uint64
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func takeReading() reading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	metrics.Read(gcCPUSample)
	gcCPU := 0.0
	if gcCPUSample[0].Value.Kind() == metrics.KindFloat64 {
		gcCPU = gcCPUSample[0].Value.Float64()
	}
	return reading{
		wall:      time.Now(),
		cpu:       tvDuration(ru.Utime) + tvDuration(ru.Stime),
		mallocs:   ms.Mallocs,
		bytes:     ms.TotalAlloc,
		gcCycles:  ms.NumGC,
		gcPauseNs: ms.PauseTotalNs,
		gcCPUSec:  gcCPU,
		heapSys:   ms.HeapSys,
	}
}

func tvDuration(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

// usage is what one round consumed: the difference of two readings.
type usage struct {
	wallS     float64
	cpuS      float64
	mallocs   uint64
	bytes     uint64
	gcCycles  uint32
	gcPauseMs float64
	gcCPUS    float64
	heapSysMB float64 // high-water mark of heap obtained from the OS, at the end
}

func (end reading) since(start reading) usage {
	return usage{
		wallS:     end.wall.Sub(start.wall).Seconds(),
		cpuS:      (end.cpu - start.cpu).Seconds(),
		mallocs:   end.mallocs - start.mallocs,
		bytes:     end.bytes - start.bytes,
		gcCycles:  end.gcCycles - start.gcCycles,
		gcPauseMs: float64(end.gcPauseNs-start.gcPauseNs) / 1e6,
		gcCPUS:    end.gcCPUSec - start.gcCPUSec,
		heapSysMB: float64(end.heapSys) / (1 << 20),
	}
}

// perReq divides, returning 0 for an empty round so a broken workload shows
// as a failed check instead of a NaN in the output.
func perReq(total float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	return total / float64(n)
}

// spinMs times a fixed integer loop that touches no memory. It says nothing
// about the program under test; it dates the machine. On the reference box
// the same loop has taken 26 % longer for an hour at a time (a busy SMT
// sibling or a lower clock), and every timing metric moved with it, so the
// value is printed with every run and reported in the layer table.
func spinMs() float64 {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 100_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink = x
	return time.Since(t0).Seconds() * 1e3
}

// spinSink keeps the compiler from deleting spinMs's loop.
var spinSink uint64
