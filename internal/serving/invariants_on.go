//go:build smiless_invariants

package serving

import "fmt"

// invariantsEnabled selects the runtime assertion layer: `go test -tags
// smiless_invariants` (or `make invariants`) compiles every invariant()
// call into a live check that panics on violation. Untagged builds compile
// the checks out entirely, so production and tier-1 test behaviour is
// byte-identical with or without this file.
const invariantsEnabled = true

// invariant panics when cond is false. It guards the front end's own
// accounting — admission slots, and at Close every admitted request resolved
// or still inflight; the engine's checks (done-map idempotency, node health
// transitions, cost conservation, history views) are package simulator's
// under the same tag.
func invariant(cond bool, format string, args ...any) {
	if !cond {
		panic("serving: invariant violated: " + fmt.Sprintf(format, args...))
	}
}
