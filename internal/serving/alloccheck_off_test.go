//go:build !race && !smiless_invariants

package serving

// allocsInstrumented reports whether the build instruments allocations and
// scheduling (race detector, invariant assertions), which the allocation and
// scheduler hand-off tests skip.
const allocsInstrumented = false
