//go:build smiless_invariants

package serving

import (
	"fmt"
	"math"
)

// invariantsEnabled selects the runtime assertion layer: `go test -tags
// smiless_invariants` (or `make invariants`) compiles every invariant()
// call into a live check that panics on violation. Untagged builds compile
// the checks out entirely, so production and tier-1 test behaviour is
// byte-identical with or without this file.
const invariantsEnabled = true

// invariant panics when cond is false. It guards properties the runtime's
// correctness argument relies on but that no single function can prove
// locally: admission-slot accounting, done-map/completion idempotency and
// node health-transition legality (event-queue pop order is eventq's own
// check under the same tag).
func invariant(cond bool, format string, args ...any) {
	if !cond {
		panic("serving: invariant violated: " + fmt.Sprintf(format, args...))
	}
}

// historyGuard fingerprints the arrival and count logs ahead of a driver
// callback; check, called after it, panics if the driver wrote through one
// of the read-only views ArrivalTimes/CountsHistory handed it (the
// ControlPlane history contract). The logs only ever grow, so the check
// re-reads exactly the prefix that existed before the callback.
type historyGuard struct {
	arrivals, counts int
	sum              uint64
}

func (rt *Runtime) guardHistory() historyGuard {
	return historyGuard{len(rt.arrivalTimes), len(rt.counts), historyChecksum(rt.arrivalTimes, rt.counts)}
}

func (g historyGuard) check(rt *Runtime) {
	invariant(len(rt.arrivalTimes) >= g.arrivals && len(rt.counts) >= g.counts &&
		historyChecksum(rt.arrivalTimes[:g.arrivals], rt.counts[:g.counts]) == g.sum,
		"driver %s wrote through a history view: the arrival/count logs changed under a callback", rt.driver.Name())
}

// historyChecksum is FNV-1a over the raw log entries.
func historyChecksum(arrivals []float64, counts []int) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, a := range arrivals {
		h = (h ^ math.Float64bits(a)) * prime
	}
	for _, c := range counts {
		h = (h ^ uint64(c)) * prime
	}
	return h
}
