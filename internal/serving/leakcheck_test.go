//go:build smiless_invariants

package serving

import (
	"testing"

	"smiless/internal/lint/linttest"
)

// TestMain arms the goroutine-leak checker under -tags smiless_invariants:
// the serving and gateway suites fail if any runtime goroutine (a wall
// timer's function, an abandon watcher, the gateway server) outlives the
// tests that spawned it. Untagged runs use the default test main and are unaffected.
func TestMain(m *testing.M) {
	linttest.VerifyTestMain(m)
}
