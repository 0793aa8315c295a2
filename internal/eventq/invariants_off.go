//go:build !smiless_invariants

package eventq

const invariantsEnabled = false
