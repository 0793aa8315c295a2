// Package lint is smilint's analysis framework: a small, dependency-free
// reimplementation of the golang.org/x/tools/go/analysis surface (Analyzer,
// Pass, Diagnostic) plus a package loader built on `go list -export` and the
// standard library's gc export-data importer.
//
// The suite mechanically enforces the guarantees the simulator's results
// rest on: fault-free runs are bit-identical, cost arithmetic is
// reproducible, and behavioural time goes through the clock abstraction.
// Four analyzers ship with the framework, each kept because a replay over
// the repository's history showed it catching a defect (determinism,
// introduced with its package tags, guards the tags' promise):
//
//   - determinism: forbids wall-clock reads, the global math/rand source,
//     sleeps and goroutine spawning in packages tagged //lint:deterministic.
//   - maporder: flags `range` over a map whose body appends to an outer
//     slice, accumulates floating-point sums, or schedules events — the
//     three ways Go's randomized map order leaks into simulation results.
//   - floateq: flags == and != on floating-point operands outside tests;
//     exact comparison is allowed only under an explicit //lint:allow.
//   - clockhygiene: forbids direct time.Now/Sleep/After/... outside
//     internal/clock and package main; behavioural time goes through
//     clock.Scheduler, measurement time through clock.Monotonic.
//
// Lock copies are go vet's (copylocks); goroutine leaks in the concurrent
// packages are caught at run time by linttest.VerifyTestMain.
//
// False positives are suppressed line by line with a comment trailing the
// code it allows,
//
//	x == y //lint:allow <analyzer> <reason>
//
// and every suppression must carry a reason; stale, standalone or malformed
// directives are themselves diagnostics, so the allowlist cannot rot.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check. Run inspects a single package through its
// Pass and reports findings via Pass.Report/Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow
	// directives. Lowercase, no spaces.
	Name string
	// Doc is a one-paragraph description shown by `smilint -help`.
	Doc string
	// Run performs the analysis. A non-nil error aborts the whole run
	// (reserved for internal failures, not findings).
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Deterministic reports whether the package carries the
	// //lint:deterministic tag (see Package.Deterministic).
	Deterministic bool

	report func(Diagnostic)
}

// Report records one finding.
func (p *Pass) Report(d Diagnostic) {
	if d.Analyzer == "" {
		d.Analyzer = p.Analyzer.Name
	}
	p.report(d)
}

// Reportf records one finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, resolved to a file position by the runner.
type Diagnostic struct {
	Pos      token.Pos
	Position token.Position // filled by Run
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// Run applies every analyzer to every package, applies //lint:allow
// suppressions, and returns the surviving diagnostics (including directive
// errors: unknown analyzer names, missing reasons, stale allows) sorted by
// position. The returned error reports analyzer crashes, not findings.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	// ran gates staleness: an allow for an analyzer that did not run this
	// invocation (smilint -only, fixture subsets) is left alone rather than
	// reported stale. known gates the unknown-name error and includes the
	// full registry, so partial runs don't misreport valid directives.
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	known := make(map[string]bool, len(ran))
	for _, a := range All() {
		known[a.Name] = true
	}
	for n := range ran {
		known[n] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		var diags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:      a,
				Fset:          pkg.Fset,
				Files:         pkg.Files,
				Pkg:           pkg.Types,
				TypesInfo:     pkg.Info,
				Deterministic: pkg.Deterministic,
				report: func(d Diagnostic) {
					d.Position = pkg.Fset.Position(d.Pos)
					diags = append(diags, d)
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: analyzer %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
		diags = applyDirectives(pkg, diags, ran, known)
		out = append(out, diags...)
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := out[i].Position, out[j].Position
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, MapOrder, FloatEq, ClockHygiene}
}
