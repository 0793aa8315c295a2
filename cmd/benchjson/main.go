// Command benchjson converts `go test -bench` text output into a JSON
// document suitable for archiving as a CI artifact, so benchmark history
// (ns/op, B/op, allocs/op) is machine-diffable across commits.
//
// Usage:
//
//	go test -bench . -benchtime 1x -short ./... | go run ./cmd/benchjson -o BENCH_sim.json
//
// Lines that are not benchmark results (goos/goarch headers, PASS/ok
// trailers) are ignored. Benchmarks appear in the output in input order.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string  `json:"name"`
	Package    string  `json:"package,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp float64 `json:"bytes_per_op,omitempty"`
	AllocsOp   float64 `json:"allocs_per_op,omitempty"`
	// Extra holds any further "<value> <unit>" pairs (custom b.ReportMetric
	// units), keyed by unit.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Speedup compares one benchmark variant against the `mode=sequential`
// baseline sharing its name prefix. Derived for every benchmark whose
// sub-bench name carries a `/mode=<variant>` segment (the convention
// BenchmarkOptimizer uses), so CI artifacts record the cache speedup as a
// first-class number.
type Speedup struct {
	// Name is the benchmark name up to (excluding) the /mode= segment.
	Name string `json:"name"`
	// Mode is the compared variant ("cached", ...).
	Mode     string  `json:"mode"`
	NsPerOp  float64 `json:"ns_per_op"`
	Baseline float64 `json:"baseline_ns_per_op"`
	// Speedup is Baseline/NsPerOp: >1 means the variant is faster.
	Speedup float64 `json:"speedup"`
}

// Document is the artifact schema.
type Document struct {
	GOOS     string    `json:"goos,omitempty"`
	GOARCH   string    `json:"goarch,omitempty"`
	CPU      string    `json:"cpu,omitempty"`
	Benchs   []Result  `json:"benchmarks"`
	Speedups []Speedup `json:"speedups,omitempty"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parse reads go-test bench output and extracts headers and result lines.
func parse(r io.Reader) (*Document, error) {
	doc := &Document{}
	sc := bufio.NewScanner(r)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseLine(line)
			if ok {
				res.Package = pkg
				doc.Benchs = append(doc.Benchs, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	doc.Speedups = deriveSpeedups(doc.Benchs)
	return doc, nil
}

// trimProcSuffix strips the trailing "-<GOMAXPROCS>" go test appends to
// benchmark names ("BenchmarkOptimizer/mode=cached-8").
func trimProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// deriveSpeedups pairs every /mode= variant with its sequential baseline.
// Results keep input order; variants without a baseline (or with zero
// timings) are skipped rather than reported as garbage ratios.
func deriveSpeedups(benchs []Result) []Speedup {
	const marker = "/mode="
	type key struct{ pkg, prefix string }
	base := make(map[key]float64)
	for _, r := range benchs {
		name := trimProcSuffix(r.Name)
		if i := strings.Index(name, marker); i >= 0 && name[i+len(marker):] == "sequential" {
			base[key{r.Package, name[:i]}] = r.NsPerOp
		}
	}
	var out []Speedup
	for _, r := range benchs {
		name := trimProcSuffix(r.Name)
		i := strings.Index(name, marker)
		if i < 0 {
			continue
		}
		mode := name[i+len(marker):]
		if mode == "sequential" {
			continue
		}
		b, ok := base[key{r.Package, name[:i]}]
		if !ok || b <= 0 || r.NsPerOp <= 0 {
			continue
		}
		out = append(out, Speedup{
			Name: name[:i], Mode: mode,
			NsPerOp: r.NsPerOp, Baseline: b, Speedup: b / r.NsPerOp,
		})
	}
	return out
}

// parseLine parses one "BenchmarkName-8  N  V unit  V unit ..." line.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: fields[0], Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsOp = v
		default:
			if res.Extra == nil {
				res.Extra = map[string]float64{}
			}
			res.Extra[unit] = v
		}
	}
	return res, true
}
