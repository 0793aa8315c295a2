package lint

import (
	"go/ast"
	"strings"
)

// ClockHygiene bans direct wall-clock access (time.Now, time.Sleep,
// time.After, time.NewTimer, time.Since, ...) everywhere except the
// internal/clock package itself (where only time.AfterFunc stays banned) and
// package main. The serving runtime's
// correctness story depends on every behavioral delay routing through the
// clock.Scheduler abstraction — that is what lets the Fake scheduler replay
// minutes of keep-alive and batching behaviour in milliseconds, and what
// keeps ScaledWall runs exact. Measurement-only stopwatches (search timings,
// experiment wall-nanos) route through clock.Monotonic. A site that truly
// needs raw wall time carries //lint:allow clockhygiene <reason>.
//
// main packages are exempt: CLIs (loadgen's open-loop pacing, smoke
// drivers) are the process edge where real time legitimately enters.
// Test files are never loaded by the framework, so tests may poll and sleep
// freely.
var ClockHygiene = &Analyzer{
	Name: "clockhygiene",
	Doc: "forbid direct time.Now/Sleep/After/Since/NewTimer outside internal/clock " +
		"and package main; behavioral time goes through clock.Scheduler, " +
		"measurement time through clock.Monotonic",
	Run: runClockHygiene,
}

func runClockHygiene(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	// The clock package is the one sanctioned home for raw time: Wall,
	// ScaledWall and Monotonic wrap it there. Matching by path suffix keeps
	// the exemption honest for fixtures (fixture/clock) without hard-coding
	// the module path. The exemption stops at time.AfterFunc: it runs its
	// callback on a new goroutine per fire and hands the caller nothing it
	// must stop, which is how a wake-up per event-loop pass once leaked; a
	// clock.Timer is one time.Timer, re-armed.
	p := pass.Pkg.Path()
	home := p == "clock" || strings.HasSuffix(p, "/clock")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath, ok := selectorPackage(pass.TypesInfo, sel)
			if !ok || pkgPath != "time" {
				return true
			}
			if home {
				if sel.Sel.Name == "AfterFunc" {
					pass.Reportf(sel.Pos(), "time.AfterFunc starts a goroutine per fire and leaves a timer nobody stops: keep one time.Timer and Reset it, as clock.Timer does")
				}
				return true
			}
			if why, bad := bannedTimeFuncs[sel.Sel.Name]; bad {
				pass.Reportf(sel.Pos(), "time.%s %s: route behavioral time through clock.Scheduler and measurement time through clock.Monotonic so fake-clock and scaled-wall runs stay exact", sel.Sel.Name, why)
			}
			return true
		})
	}
	return nil
}
