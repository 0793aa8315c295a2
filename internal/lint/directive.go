package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// Directive is one parsed //lint:... comment.
//
// Two verbs exist:
//
//	//lint:deterministic
//	    Tags the package (file placement is conventional: the package-doc
//	    file) as deterministic: identical inputs must produce identical
//	    outputs, so the determinism analyzer bans wall-clock reads, the
//	    global math/rand source, sleeps and goroutine spawning.
//
//	//lint:allow <analyzer> <reason>
//	    Suppresses that analyzer's diagnostics on the line the directive
//	    trails. The reason is mandatory; a directive that stands on its own
//	    line, names an unknown analyzer, omits the reason, or suppresses
//	    nothing (stale) is itself reported.
type Directive struct {
	Pos      token.Pos
	Position token.Position
	Verb     string // "allow" or "deterministic"
	Analyzer string // for allow
	Reason   string // for allow
	// Line is the file:line key of the code the directive trails; empty
	// when the directive stands on its own line.
	Line string
	used bool
}

const directivePrefix = "//lint:"

// parseDirectives extracts //lint: directives from one file. src is the raw
// file contents, used to decide whether a comment trails code on its line.
func parseDirectives(fset *token.FileSet, f *ast.File, src []byte) []*Directive {
	var out []*Directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if !strings.HasPrefix(text, directivePrefix) {
				continue
			}
			// Fixtures append expectation markers to directive lines; they
			// are not part of the directive.
			if i := strings.Index(text, " // want"); i >= 0 {
				text = strings.TrimSpace(text[:i])
			}
			pos := fset.Position(c.Pos())
			d := &Directive{Pos: c.Pos(), Position: pos}
			rest := strings.TrimPrefix(text, directivePrefix)
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				d.Verb = fields[0]
			}
			if d.Verb == "allow" {
				if len(fields) > 1 {
					d.Analyzer = fields[1]
				}
				if len(fields) > 2 {
					d.Reason = strings.Join(fields[2:], " ")
				}
			}
			if trailsCode(src, pos) {
				d.Line = lineKey(pos.Filename, pos.Line)
			}
			out = append(out, d)
		}
	}
	return out
}

// trailsCode reports whether the position (a comment start) has non-blank
// source before it on its line.
func trailsCode(src []byte, pos token.Position) bool {
	if pos.Offset > len(src) {
		return false
	}
	start := pos.Offset - (pos.Column - 1)
	if start < 0 {
		start = 0
	}
	return len(strings.TrimSpace(string(src[start:pos.Offset]))) > 0
}

func lineKey(file string, line int) string {
	return file + ":" + strconv.Itoa(line)
}

// hasDeterministicTag reports whether any file carries //lint:deterministic.
func hasDeterministicTag(files []*ast.File) bool {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.TrimSpace(c.Text) == directivePrefix+"deterministic" {
					return true
				}
			}
		}
	}
	return false
}

// applyDirectives filters diags through the package's //lint:allow
// directives and appends directive-error diagnostics: unknown verbs,
// standalone allows, unknown analyzer names, missing reasons, and stale
// allows. Directive errors use the pseudo-analyzer name "directive" and
// cannot themselves be allowlisted. ran is the set of analyzers that
// executed this invocation: staleness is only judged for those, so running
// a subset (smilint -only) never misreports an allow held for an analyzer
// that was skipped. known is the full registry, gating the unknown-name
// error.
func applyDirectives(pkg *Package, diags []Diagnostic, ran, known map[string]bool) []Diagnostic {
	var dirs []*Directive
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		dirs = append(dirs, parseDirectives(pkg.Fset, f, pkg.Src[name])...)
	}
	var out []Diagnostic
	// Validate directives first so malformed allows never suppress.
	valid := make([]*Directive, 0, len(dirs))
	for _, d := range dirs {
		switch d.Verb {
		case "deterministic":
			continue
		case "allow":
			switch {
			case d.Line == "":
				out = append(out, directiveError(d, "standalone //lint:allow: a directive must trail the line it allows"))
			case d.Analyzer == "":
				out = append(out, directiveError(d, "malformed //lint:allow: missing analyzer name (want //lint:allow <analyzer> <reason>)"))
			case !known[d.Analyzer]:
				out = append(out, directiveError(d, "//lint:allow names unknown analyzer %q (known: %s)", d.Analyzer, knownNames(known)))
			case d.Reason == "":
				out = append(out, directiveError(d, "//lint:allow %s: missing reason — say why exactness/wallclock/etc. is safe here", d.Analyzer))
			default:
				valid = append(valid, d)
			}
		default:
			out = append(out, directiveError(d, "unknown directive //lint:%s (want allow or deterministic)", d.Verb))
		}
	}
	for _, diag := range diags {
		suppressed := false
		key := lineKey(diag.Position.Filename, diag.Position.Line)
		for _, d := range valid {
			if d.Analyzer == diag.Analyzer && d.Line == key {
				d.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, diag)
		}
	}
	for _, d := range valid {
		if !d.used && ran[d.Analyzer] {
			out = append(out, directiveError(d, "stale //lint:allow %s: no %s diagnostic on this line — remove the directive", d.Analyzer, d.Analyzer))
		}
	}
	return out
}

func directiveError(d *Directive, format string, args ...any) Diagnostic {
	diag := Diagnostic{Pos: d.Pos, Position: d.Position, Analyzer: "directive"}
	diag.Message = fmt.Sprintf(format, args...)
	return diag
}

func knownNames(known map[string]bool) string {
	names := make([]string, 0, len(known))
	for n := range known {
		names = append(names, n)
	}
	// Sorted for deterministic messages — the linter practices what it
	// preaches.
	sort.Strings(names)
	return strings.Join(names, ", ")
}
