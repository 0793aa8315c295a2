package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseOne(t *testing.T, src string) []*Directive {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "d.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return parseDirectives(fset, f, []byte(src))
}

func TestParseAllowDirective(t *testing.T) {
	src := "package p\n\nfunc f() {\n\t_ = 1 //lint:allow floateq exact tie-break ordering\n}\n"
	dirs := parseOne(t, src)
	if len(dirs) != 1 {
		t.Fatalf("got %d directives, want 1", len(dirs))
	}
	d := dirs[0]
	if d.Verb != "allow" || d.Analyzer != "floateq" {
		t.Errorf("parsed verb=%q analyzer=%q", d.Verb, d.Analyzer)
	}
	if d.Reason != "exact tie-break ordering" {
		t.Errorf("reason = %q", d.Reason)
	}
	if d.Line != "d.go:4" {
		t.Errorf("trailing directive applies to %s, want d.go:4", d.Line)
	}
}

func TestStandaloneDirectiveIsAnError(t *testing.T) {
	src := "package p\n\nfunc f() {\n\t//lint:allow maporder sum is tolerance-checked\n\t_ = 1\n}\n"
	dirs := parseOne(t, src)
	if len(dirs) != 1 || dirs[0].Line != "" {
		t.Fatalf("standalone directive binds to a line: %+v", dirs)
	}
	out := applyAll(t, src, Diagnostic{Position: token.Position{Filename: "d.go", Line: 5}, Analyzer: "maporder", Message: "m"})
	wantDiagnostics(t, out, "d.go:4 must trail", "d.go:5 m")
}

func TestParseDirectiveStripsWantMarker(t *testing.T) {
	src := "package p\n\nvar x = 1 //lint:allow floateq migrating // want `stale`\n"
	dirs := parseOne(t, src)
	if len(dirs) != 1 {
		t.Fatalf("got %d directives, want 1", len(dirs))
	}
	if dirs[0].Reason != "migrating" {
		t.Errorf("reason %q should not contain the want marker", dirs[0].Reason)
	}
}

func TestParseDirectiveOnStructField(t *testing.T) {
	src := "package p\n\ntype s struct {\n\tlatency float64 //lint:allow floateq stored bit-exact\n\t//lint:allow floateq a field doc comment is standalone\n\twire float64\n}\n"
	dirs := parseOne(t, src)
	if len(dirs) != 2 {
		t.Fatalf("got %d directives, want 2", len(dirs))
	}
	if dirs[0].Line != "d.go:4" {
		t.Errorf("trailing field directive applies to %s, want d.go:4", dirs[0].Line)
	}
	out := applyAll(t, src,
		Diagnostic{Position: token.Position{Filename: "d.go", Line: 4}, Analyzer: "floateq", Message: "m4"},
		Diagnostic{Position: token.Position{Filename: "d.go", Line: 6}, Analyzer: "floateq", Message: "m6"})
	wantDiagnostics(t, out, "d.go:5 must trail", "d.go:6 m6")
}

func TestParseDirectiveOnPackageClause(t *testing.T) {
	src := "package p //lint:allow maporder demo\n\nvar x = 1\n"
	dirs := parseOne(t, src)
	if len(dirs) != 1 {
		t.Fatalf("got %d directives, want 1", len(dirs))
	}
	if dirs[0].Line != "d.go:1" {
		t.Errorf("package-clause directive applies to %s, want d.go:1", dirs[0].Line)
	}
}

func TestParseDirectivesCRLF(t *testing.T) {
	src := "package p\r\n\r\nfunc f() {\r\n\t//lint:allow maporder carriage returns stay out of the reason\r\n\t_ = 1 //lint:allow floateq same on a trailing comment\r\n}\r\n"
	dirs := parseOne(t, src)
	if len(dirs) != 2 {
		t.Fatalf("got %d directives, want 2", len(dirs))
	}
	for _, d := range dirs {
		if strings.ContainsAny(d.Reason, "\r\n") {
			t.Errorf("//lint:allow %s reason %q contains line-ending bytes", d.Analyzer, d.Reason)
		}
	}
	out := applyAll(t, src, Diagnostic{Position: token.Position{Filename: "d.go", Line: 5}, Analyzer: "floateq", Message: "m"})
	wantDiagnostics(t, out, "d.go:4 must trail")
}

// TestAllowForDeletedAnalyzerIsUnknown keeps allows for the analyzers the
// suite no longer ships from lingering as silent no-ops.
func TestAllowForDeletedAnalyzerIsUnknown(t *testing.T) {
	for _, name := range []string{"lockcheck", "ctxflow", "goroleak", "unitsafety"} {
		out := applyAll(t, "package p\n\nvar x = 1 //lint:allow "+name+" reason\n")
		wantDiagnostics(t, out, "d.go:3 unknown analyzer \""+name+"\"")
	}
}

func TestApplyDirectivesStaleOnlyForRanAnalyzers(t *testing.T) {
	src := "package p\n\nvar x = 1 //lint:allow floateq held for a skipped analyzer\n"
	pkg := packageFromSource(t, src)
	known := map[string]bool{"maporder": true, "floateq": true}
	// floateq did not run: the unused allow must not be reported stale.
	out := applyDirectives(pkg, nil, map[string]bool{"maporder": true}, known)
	if len(out) != 0 {
		t.Fatalf("allow for a skipped analyzer reported: %v", out)
	}
	// floateq ran and suppressed nothing: now it is stale.
	out = applyDirectives(pkg, nil, known, known)
	if len(out) != 1 || !strings.Contains(out[0].Message, "stale") {
		t.Fatalf("want one stale-directive error, got %v", out)
	}
}

func packageFromSource(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "d.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return &Package{
		ImportPath: "p",
		Fset:       fset,
		Files:      []*ast.File{f},
		Src:        map[string][]byte{"d.go": []byte(src)},
	}
}

// applyAll applies src's directives to diags as a full-suite run does.
func applyAll(t *testing.T, src string, diags ...Diagnostic) []Diagnostic {
	t.Helper()
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	return applyDirectives(packageFromSource(t, src), diags, known, known)
}

// wantDiagnostics checks out, in order, against "file:line substring"
// expectations.
func wantDiagnostics(t *testing.T, out []Diagnostic, wants ...string) {
	t.Helper()
	if len(out) != len(wants) {
		t.Fatalf("got %d diagnostics %v, want %d %q", len(out), out, len(wants), wants)
	}
	for i, w := range wants {
		at, msg, _ := strings.Cut(w, " ")
		if got := lineKey(out[i].Position.Filename, out[i].Position.Line); got != at || !strings.Contains(out[i].Message, msg) {
			t.Errorf("diagnostic %d = %s, want %s containing %q", i, out[i], at, msg)
		}
	}
}

func TestDeterministicTag(t *testing.T) {
	src := "// Package p models things.\n//\n//lint:deterministic\npackage p\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !hasDeterministicTag([]*ast.File{f}) {
		t.Error("tag not detected")
	}

	plain := "package p\n"
	g, err := parser.ParseFile(fset, "q.go", plain, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if hasDeterministicTag([]*ast.File{g}) {
		t.Error("tag detected in untagged package")
	}
}
