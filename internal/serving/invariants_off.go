//go:build !smiless_invariants

package serving

// invariantsEnabled is false in ordinary builds: invariant() is a no-op the
// compiler eliminates, and blocks gated on this constant are dead code. See
// invariants_on.go for the assertion layer `make invariants` enables.
const invariantsEnabled = false

func invariant(bool, string, ...any) {}
