//go:build smiless_invariants

package simulator

import (
	"fmt"
	"math"
)

// invariantsEnabled selects the runtime assertion layer: `go test -tags
// smiless_invariants` (or `make invariants`) compiles every invariant()
// call into a live check that panics on violation. Untagged builds compile
// the checks out entirely, preserving byte-identical replay.
const invariantsEnabled = true

// invariant panics when cond is false. The simulator's event loop already
// panics on time travel in every build; the tagged layer adds the
// accounting properties around it: done-map idempotency, pending/remaining
// counters never going negative, single-fire completion and node health
// transitions.
func invariant(cond bool, format string, args ...any) {
	if !cond {
		panic("simulator: invariant violated: " + fmt.Sprintf(format, args...))
	}
}

// checkConservation asserts, once Settle has terminated the fleet, that every
// billed second belongs to exactly one container: no container is left on
// any list, and the ledger holds what was billed before plus what the live
// containers owed at this instant (owed; summed in the same id order), split
// exactly between the CPU and GPU books.
func (e *Engine) checkConservation(owed float64) {
	invariant(len(e.conts) == 0, "settling left %d containers live", len(e.conts))
	for _, fs := range e.fnList {
		invariant(len(fs.containers) == 0, "settling left %d containers of %s live", len(fs.containers), fs.id)
	}
	st := e.stats
	invariant(math.Abs(st.TotalCost-owed) <= 1e-9, "billed %.12f, but terminated plus accrued cost was %.12f", st.TotalCost, owed)
	invariant(math.Abs(st.CPUCost+st.GPUCost-st.TotalCost) <= 1e-9, "CPU %.12f + GPU %.12f books do not add up to %.12f", st.CPUCost, st.GPUCost, st.TotalCost)
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

func (e *Engine) guardHistory() historyGuard {
	return historyGuard{len(e.arrivalTimes), len(e.counts), historyChecksum(e.arrivalTimes, e.counts)}
}

func (g historyGuard) check(e *Engine) {
	invariant(len(e.arrivalTimes) >= g.arrivals && len(e.counts) >= g.counts &&
		historyChecksum(e.arrivalTimes[:g.arrivals], e.counts[:g.counts]) == g.sum,
		"driver %s wrote through a history view: the arrival/count logs changed under a callback", e.driver.Name())
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
