//go:build smiless_invariants

package eventq

// invariantsEnabled turns on Pop's time-order assertion (`make invariants`).
const invariantsEnabled = true
