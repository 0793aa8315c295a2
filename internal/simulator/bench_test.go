package simulator

import (
	"runtime"
	"testing"

	"smiless/internal/apps"
	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/mathx"
	"smiless/internal/trace"
)

// BenchmarkRun measures a full fault-free simulation of a three-stage
// pipeline under a diurnal trace — the hot path every experiment drives. Next
// to the per-run numbers it reports the executor loop's unit costs: ns/event
// and allocs/event over every arrival, window tick and queued event handled.
func BenchmarkRun(b *testing.B) {
	app := apps.Pipeline(3)
	tr := trace.Diurnal(mathx.NewRand(7), 0.3, 0.5, 300, 600)
	if tr.Len() == 0 {
		b.Fatal("empty benchmark trace")
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := &staticDriver{directive: func(dag.NodeID) Directive {
			return Directive{
				Config: cpu(4), Policy: coldstart.KeepAlive,
				KeepAlive: 30, Batch: 4, Instances: 4,
			}
		}}
		sim := MustNew(Config{App: app, SLA: 60, Seed: 1}, d)
		sim.MustRun(tr)
		events += sim.handled
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(events), "allocs/event")
}
