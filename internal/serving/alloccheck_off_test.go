//go:build !race && !smiless_invariants

package serving

// allocsInstrumented reports whether the build instruments allocations
// (race detector, invariant assertions), which allocation tests skip.
const allocsInstrumented = false
