// Package untagged is NOT tagged deterministic: wall-clock reads and
// goroutines are fine here (experiments measure real wall time).
package untagged

import "time"

func wallTime() time.Duration {
	start := time.Now()
	go func() {}()
	return time.Since(start)
}
