package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"smiless/internal/apps"
	"smiless/internal/dag"
	"smiless/internal/hardware"
)

// planCost is the Σ candidate cost of the Optimizer's last assignment,
// summed in OptimizeExact's solve order for sla: the objective it
// minimizes.
func planCost(o *Optimizer, l *dag.Layout, sla float64) float64 {
	cost := 0.0
	for _, i := range newExactSearch(l, o.ws.cands, o.ws.fast, sla).order {
		cost += o.ws.cands[i][o.ws.assign[i]].cost
	}
	return cost
}

// bruteForce enumerates every assignment of the workspace's candidate
// tables in lexicographic order (OptimizeExact's solve order, candidates in
// table order) and returns the first of minimum Σ cost whose finish times
// all stay within sla, timed as refiner.eval times them; nil when none
// does.
func bruteForce(o *Optimizer, l *dag.Layout, sla float64) (best []int, bestCost float64) {
	cands, order := o.ws.cands, newExactSearch(l, o.ws.cands, o.ws.fast, sla).order
	pick, finish := make([]int, len(order)), make([]float64, len(order))
	bestCost = math.Inf(1)
	var rec func(k int, cost float64)
	rec = func(k int, cost float64) {
		if k == len(order) {
			if cost < bestCost {
				bestCost, best = cost, slices.Clone(pick)
			}
			return
		}
		i := order[k]
		start := 0.0
		for _, p := range l.Preds[i] {
			start = max(start, finish[p])
		}
		for ci, c := range cands[i] {
			if f := start + c.infer; f <= sla {
				pick[i], finish[i] = ci, f
				rec(k+1, cost+c.cost)
			}
		}
	}
	rec(0, 0)
	return best, bestCost
}

// TestExactMatchesBruteForce holds OptimizeExact to a brute-force
// enumeration of the same candidate tables on random DAGs of at most four
// functions, with no slack: the same plan, bit for bit the same cost, and
// the same verdict when no plan meets the SLA.
func TestExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	o := New(hardware.DefaultCatalog())
	o.Cache = nil
	checked, infeasible := 0, 0
	for checked < 1000 {
		s := randomStep(rng)
		s.nodes %= 3                   // 2..4 functions
		s.sla = 0.05 + rng.Float64()/2 // tight enough that some plans miss it
		req, ok := fuzzRequest(s)
		if !ok {
			continue
		}
		checked++
		res, err := o.OptimizeExact(req)
		if err != nil {
			t.Fatal(err)
		}
		l := req.Graph.Layout()
		want, wantCost := bruteForce(o, l, req.SLA)
		if want == nil {
			infeasible++
			if res.Feasible {
				t.Errorf("%d nodes, SLA %v, IT %v: brute force finds no plan, exact says feasible", len(l.Topo), s.sla, s.it)
			}
			continue
		}
		if got := planCost(o, l, req.SLA); !slices.Equal(o.ws.assign, want) || got != wantCost {
			t.Errorf("%d nodes, SLA %v, IT %v: exact picks %v (cost %v), brute force %v (cost %v)",
				len(l.Topo), s.sla, s.it, o.ws.assign, got, want, wantCost)
		}
	}
	t.Logf("%d of %d requests infeasible", infeasible, checked)
	if infeasible == 0 || infeasible == checked {
		t.Fatalf("fixture too weak: %d of %d requests infeasible", infeasible, checked)
	}
}

// TestSearchNeverBeatsExact runs the path search and the exact solver on
// the four BenchmarkOptimizer workloads over an IT × SLA grid: wherever the
// search finds a feasible plan, the exact plan costs no more. With -v it
// logs the distribution of search/exact cost ratios per workload.
func TestSearchNeverBeatsExact(t *testing.T) {
	workloads := []*apps.Application{apps.ImageQuery(), apps.VoiceAssistant(), apps.Pipeline(12), fanOutApp(8, 4)}
	search, exact := New(hardware.DefaultCatalog()), New(hardware.DefaultCatalog())
	search.Cache, exact.Cache = nil, nil
	var all []float64
	for _, app := range workloads {
		var ratios []float64
		l := app.Graph.Layout()
		profiles := profilesFor(app)
		for _, sla := range []float64{1, 1.5, 2, 3} {
			for it := 0.5; it <= 120; it *= 1.5 {
				req := Request{Graph: app.Graph, Profiles: profiles, SLA: sla, IT: it, Batch: 1}
				sres, err := search.Optimize(req)
				if err != nil {
					t.Fatal(err)
				}
				eres, err := exact.OptimizeExact(req)
				if err != nil {
					t.Fatal(err)
				}
				if !sres.Feasible {
					continue
				}
				if !eres.Feasible {
					t.Errorf("%s SLA %v IT %v: search feasible, exact not", app.Name, sla, it)
					continue
				}
				sc, ec := planCost(search, l, sla), planCost(exact, l, sla)
				if ec > sc {
					t.Errorf("%s SLA %v IT %v: exact cost %v above search cost %v", app.Name, sla, it, ec, sc)
				}
				ratios = append(ratios, sc/ec)
			}
		}
		logRatios(t, app.Name, ratios)
		all = append(all, ratios...)
	}
	logRatios(t, "all", all)
}

// logRatios logs the p50, p99 and maximum of a sample of search/exact cost
// ratios.
func logRatios(t *testing.T, name string, ratios []float64) {
	t.Helper()
	if len(ratios) == 0 {
		t.Fatalf("%s: no feasible operating point", name)
	}
	slices.Sort(ratios)
	at := func(q float64) float64 { return ratios[int(math.Ceil(q*float64(len(ratios)))-1)] }
	t.Logf("%-16s search/exact Σcost over %3d feasible points: p50 %.4f  p99 %.4f  max %.4f",
		name, len(ratios), at(0.5), at(0.99), at(1))
}

// FuzzSLAMonotone checks that loosening the SLA never raises the exact
// optimum, wherever every function's candidate set at the looser SLA
// contains its set at the tighter one. The MaxInitFactor filter's fallback
// to the full catalog can break that containment (a function with no
// configuration initializing within MaxInitFactor tight SLAs gets every
// configuration, and a looser SLA then admits only some); such inputs are
// skipped.
func FuzzSLAMonotone(f *testing.F) {
	f.Add(uint8(3), uint64(0b111), 2.0, 0.5, 15.0)
	f.Add(uint8(6), uint64(0x3ff), 1.2, 2.0, 5.0)
	f.Add(uint8(1), uint64(0), 0.4, 0.3, 1.0)
	f.Add(uint8(4), uint64(0xffff), 0.8, 1.5, 60.0)
	f.Fuzz(func(t *testing.T, nodes uint8, edges uint64, sla, looser, it float64) {
		if sla <= 0 || sla > 100 || looser < 0 || looser > 100 || it <= 0 || it > 1e5 {
			t.Skip("out of the modelled operating range")
		}
		req, ok := fuzzRequest(optimizeStep{nodes: nodes, edges: edges, sla: sla, it: it})
		if !ok {
			t.Skip("not a single-entry DAG")
		}
		o := New(hardware.DefaultCatalog())
		o.Cache = nil
		tight, err := o.OptimizeExact(req)
		if err != nil {
			t.Fatal(err)
		}
		tightCost := planCost(o, req.Graph.Layout(), req.SLA)
		tightCands := make([][]candidate, len(o.ws.cands))
		for i, c := range o.ws.cands {
			tightCands[i] = slices.Clone(c)
		}
		req.SLA = sla + looser
		loose, err := o.OptimizeExact(req)
		if err != nil {
			t.Fatal(err)
		}
		for i, cands := range tightCands {
			for _, c := range cands {
				if !slices.Contains(o.ws.cands[i], c) {
					t.Skip("full-catalog fallback: candidate sets not nested")
				}
			}
		}
		if tight.Feasible && !loose.Feasible {
			t.Fatalf("SLA %v feasible, looser SLA %v not", sla, req.SLA)
		}
		if looseCost := planCost(o, req.Graph.Layout(), req.SLA); tight.Feasible && looseCost > tightCost {
			t.Fatalf("exact optimum rose from %v at SLA %v to %v at SLA %v", tightCost, sla, looseCost, req.SLA)
		}
	})
}

// BenchmarkOptimizeExact times one exact solve, without the evaluation
// cache, per workload at SLA 2 over an IT grid.
func BenchmarkOptimizeExact(b *testing.B) {
	workloads := []*apps.Application{apps.AmberAlert(), apps.ImageQuery(), apps.VoiceAssistant(), apps.Pipeline(6), apps.Pipeline(12)}
	for _, app := range workloads {
		profiles := profilesFor(app)
		for _, it := range []float64{0.5, 2, 10, 60} {
			req := Request{Graph: app.Graph, Profiles: profiles, SLA: 2, IT: it, Batch: 1}
			b.Run(fmt.Sprintf("%s/it=%g", app.Name, it), func(b *testing.B) {
				o := New(hardware.DefaultCatalog())
				o.Cache = nil
				for i := 0; i < b.N; i++ {
					if _, err := o.OptimizeExact(req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
