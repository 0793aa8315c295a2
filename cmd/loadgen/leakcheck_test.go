//go:build smiless_invariants

package main

import (
	"testing"

	"smiless/internal/lint/linttest"
)

// TestMain arms the goroutine-leak checker under -tags smiless_invariants:
// the suite fails if an engine's worker, pacer or progress goroutine
// outlives the run that spawned it. Untagged runs use the default test main.
func TestMain(m *testing.M) {
	linttest.VerifyTestMain(m)
}
