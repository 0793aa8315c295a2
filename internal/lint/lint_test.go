package lint_test

import (
	"testing"

	"smiless/internal/lint"
	"smiless/internal/lint/linttest"
)

func TestDeterminismFixture(t *testing.T) {
	linttest.Run(t, "testdata/determinism", lint.Determinism)
}

func TestDeterminismUntaggedFixture(t *testing.T) {
	linttest.Run(t, "testdata/determinism_untagged", lint.Determinism)
}

func TestMapOrderFixture(t *testing.T) {
	linttest.Run(t, "testdata/maporder", lint.MapOrder)
}

func TestFloatEqFixture(t *testing.T) {
	linttest.Run(t, "testdata/floateq", lint.FloatEq)
}

func TestClockHygieneFixture(t *testing.T) {
	linttest.Run(t, "testdata/clockhygiene", lint.ClockHygiene)
}

// TestClockHygieneHomeFixture proves the home-package exemption: a package
// whose import path ends in /clock may touch time directly, so the fixture's
// only want marker is on time.AfterFunc, which stays banned even there.
func TestClockHygieneHomeFixture(t *testing.T) {
	linttest.Run(t, "testdata/clock", lint.ClockHygiene)
}

// TestDirectivesFixture covers //lint:allow handling end to end: unknown
// analyzer names, missing reasons, unknown verbs, standalone and stale
// allows, and the rule that an invalid allow suppresses nothing.
func TestDirectivesFixture(t *testing.T) {
	linttest.Run(t, "testdata/directives", lint.All()...)
}

// TestRepoIsClean is the runtime backstop for the CI lint gate: the whole
// module must pass the full suite with zero diagnostics. Re-introducing a
// time.Now() into internal/simulator fails this test as well as the lint
// job.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module lint run in -short mode")
	}
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := lint.Run(pkgs, lint.All())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
