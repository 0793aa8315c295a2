//go:build !smiless_invariants

package simulator

// invariantsEnabled is false in ordinary builds: invariant() is a no-op the
// compiler eliminates, and blocks gated on this constant are dead code. See
// invariants_on.go for the assertion layer `make invariants` enables.
const invariantsEnabled = false

func invariant(bool, string, ...any) {}

func (*Engine) checkConservation(float64) {}

// historyGuard is the untagged stand-in for the history-view write check of
// invariants_on.go: empty, with no-op methods the compiler inlines away.
type historyGuard struct{}

func (*Engine) guardHistory() historyGuard { return historyGuard{} }

func (historyGuard) check(*Engine) {}

func (*Engine) checkReleased(*container, *Request) {}
