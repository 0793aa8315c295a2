package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: smiless
cpu: Intel(R) Xeon(R)
BenchmarkOptimizer/app=WL1/mode=sequential-8   	50	20000 ns/op
BenchmarkOptimizer/app=WL2/mode=sequential-8   	50	60000 ns/op
BenchmarkOptimizer/app=WL2/mode=cached-8       	50	6000 ns/op	12 hits/op
BenchmarkOptimizer/app=WL3/mode=cached-8       	50	1000 ns/op
BenchmarkSimulatorThroughput-8                 	10	500000 ns/op	2048 B/op	17 allocs/op
PASS
ok  	smiless	1.2s
`

func TestParseAndDeriveSpeedups(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GOOS != "linux" || doc.GOARCH != "amd64" {
		t.Errorf("headers not parsed: %q/%q", doc.GOOS, doc.GOARCH)
	}
	if len(doc.Benchs) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5", len(doc.Benchs))
	}
	if doc.Benchs[2].Extra["hits/op"] != 12 {
		t.Errorf("custom metric lost: %+v", doc.Benchs[2].Extra)
	}
	if doc.Benchs[4].BytesPerOp != 2048 || doc.Benchs[4].AllocsOp != 17 {
		t.Errorf("benchmem fields lost: %+v", doc.Benchs[4])
	}

	// WL2's cached variant has a baseline → one speedup; WL1 is a baseline
	// alone and WL3 a variant without one → skipped; the throughput bench
	// has no /mode= segment → skipped.
	if len(doc.Speedups) != 1 {
		t.Fatalf("derived %d speedups, want 1: %+v", len(doc.Speedups), doc.Speedups)
	}
	cached := doc.Speedups[0]
	if cached.Name != "BenchmarkOptimizer/app=WL2" || cached.Mode != "cached" || cached.Speedup != 10.0 || cached.Baseline != 60000 {
		t.Errorf("cached speedup wrong: %+v", cached)
	}
}

func TestTrimProcSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkX-8":            "BenchmarkX",
		"BenchmarkX/mode=seq-16":  "BenchmarkX/mode=seq",
		"BenchmarkX/mode=top-1":   "BenchmarkX/mode=top", // ambiguous by design: go test's own suffix
		"BenchmarkX/mode=cached":  "BenchmarkX/mode=cached",
		"BenchmarkName-with-text": "BenchmarkName-with-text",
	} {
		if got := trimProcSuffix(in); got != want {
			t.Errorf("trimProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}
