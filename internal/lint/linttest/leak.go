// Goroutine-leak verification for test suites of concurrent packages, in
// the style of go.uber.org/goleak but dependency-free: after the suite
// passes, every goroutine running this module's code must have exited.
// A Runtime whose Close doesn't join its scheduler loop, a gateway whose
// Serve goroutine outlives Shutdown, or a node agent pump with no stop
// path all turn into suite failures with full stacks.
package linttest

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"smiless/internal/clock"
)

// VerifyTestMain wraps testing.M.Run with a goroutine-leak check: adopt it
// from a TestMain —
//
//	func TestMain(m *testing.M) { linttest.VerifyTestMain(m) }
//
// When the suite passes but module goroutines are still running after a
// grace period (goroutines legitimately winding down get a few seconds to
// finish), the process exits non-zero and prints the leaked stacks.
func VerifyTestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := leakedGoroutines(5 * time.Second); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "linttest: %d goroutine(s) leaked past a passing test suite:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// leakedGoroutines polls until no module goroutines remain or patience runs
// out, returning the stacks still alive at the deadline. Polling (rather
// than a single snapshot) absorbs goroutines that are mid-exit when the
// last test finishes.
func leakedGoroutines(patience time.Duration) []string {
	deadline := clock.Monotonic() + patience.Nanoseconds()
	for {
		leaked := moduleGoroutines()
		if len(leaked) == 0 || clock.Monotonic() > deadline {
			return leaked
		}
		time.Sleep(10 * time.Millisecond) //lint:allow clockhygiene leak-detector backoff runs after the suite's own work is done; real time is the only clock left
	}
}

// moduleRoot is the module's source root with a trailing slash: a stack
// frame running the module's code prints its file under it. Located from
// this file rather than spelled as the module path, so renaming the module
// cannot silently turn the check into a no-op.
var moduleRoot = func() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok || !strings.HasSuffix(file, "internal/lint/linttest/leak.go") {
		panic("linttest: cannot locate the module's source root")
	}
	return strings.TrimSuffix(file, "internal/lint/linttest/leak.go")
}()

// moduleGoroutines snapshots all goroutine stacks and keeps those executing
// this module's code, excluding the calling goroutine (the test main).
func moduleGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	stacks := strings.Split(string(buf), "\n\n")
	var leaked []string
	for _, st := range stacks[1:] { // stacks[0] is the caller's own stack
		if strings.Contains(st, moduleRoot) {
			leaked = append(leaked, st)
		}
	}
	return leaked
}
