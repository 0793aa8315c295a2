// Command smilint runs the SMIless analyzer suite (internal/lint) over the
// module: determinism (no wall clocks / global rand / goroutines in
// //lint:deterministic packages), maporder (randomized map iteration must
// not order appends, float sums or event scheduling), floateq (no exact
// float equality outside tests) and clockhygiene (raw time access only
// inside internal/clock and main).
//
// Usage:
//
//	go run ./cmd/smilint ./...
//	go run ./cmd/smilint -only determinism,maporder ./internal/simulator
//	go run ./cmd/smilint -json ./... > findings.json
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure — identical
// with and without -json. Suppress a finding with a trailing
// `//lint:allow <analyzer> <reason>`; stale or malformed suppressions are
// findings themselves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"smiless/internal/lint"
)

// jsonFinding is one diagnostic in -json output: a flat array of these is
// printed, machine-readable for problem matchers and editor integrations.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("smilint", flag.ContinueOnError)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array instead of file:line:col lines")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: smilint [flags] [packages]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := make(map[string]*lint.Analyzer, len(analyzers))
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		var picked []*lint.Analyzer
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "smilint: unknown analyzer %q (try -list)\n", name)
				return 2
			}
			picked = append(picked, a)
		}
		analyzers = picked
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "smilint: %v\n", err)
		return 2
	}
	pkgs, err := lint.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smilint: %v\n", err)
		return 2
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smilint: %v\n", err)
		return 2
	}
	findings := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		pos := d.Position
		if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
		findings = append(findings, jsonFinding{
			File: pos.Filename, Line: pos.Line, Column: pos.Column,
			Analyzer: d.Analyzer, Message: d.Message,
		})
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "smilint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", f.File, f.Line, f.Column, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "smilint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
