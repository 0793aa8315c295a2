// Package det is a determinism fixture: tagged deterministic, so wall
// clocks, the global rand source, sleeps and goroutines are all banned.
//
//lint:deterministic
package det

import (
	"math/rand"
	"time"
)

func clocks() time.Time {
	t := time.Now()              // want `time.Now reads the wall clock`
	_ = time.Since(t)            // want `time.Since reads the wall clock`
	time.Sleep(time.Millisecond) // want `time.Sleep blocks on the wall clock`
	_ = time.Until(t)            // want `time.Until reads the wall clock`
	return t
}

func globalRand() float64 {
	x := rand.Float64() // want `rand.Float64 draws from the global source`
	n := rand.Intn(10)  // want `rand.Intn draws from the global source`
	return x + float64(n)
}

// seededRand threads an explicit source: allowed.
func seededRand(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

func spawns(ch chan int) {
	go func() { ch <- 1 }() // want `goroutine spawned in deterministic package`
}

// allowed demonstrates the escape hatch: wall time for a log banner only.
func allowed() time.Time {
	return time.Now() //lint:allow determinism log banner only, result never feeds simulation state
}

// fanOut spawns under the line-scoped escape hatch: workers write to
// pre-assigned slots and the caller blocks on all of them, so the merge order
// is deterministic.
func fanOut(xs []int) []int {
	out := make([]int, len(xs))
	done := make(chan struct{}, len(xs))
	for i, x := range xs {
		i, x := i, x
		go func() { //lint:allow determinism workers fill per-index slots, joined before any read
			out[i] = x * x
			done <- struct{}{}
		}()
	}
	for range xs {
		<-done
	}
	return out
}
