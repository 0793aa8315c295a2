package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"smiless/internal/apps"
	"smiless/internal/dag"
	"smiless/internal/hardware"
)

// fullEvalRefiner is the local search as it ran before trials were timed
// incrementally: every trial re-evaluates the whole DAG. It is the
// reference the incremental refiner must match bit for bit.
type fullEvalRefiner struct{ *refiner }

// eval returns E2E latency and total cost of the current assignment.
func (r fullEvalRefiner) eval() (lat, cost float64) {
	for i, cands := range r.cands {
		c := cands[r.assign[i]]
		cost += c.cost
		start := 0.0
		for _, p := range r.preds[i] {
			if f := r.finish[p]; f > start {
				start = f
			}
		}
		f := start + c.infer
		r.finish[i] = f
		if f > lat {
			lat = f
		}
	}
	return lat, cost
}

func (r fullEvalRefiner) downgrade(allowed func(i int) bool) {
	for changed := true; changed; {
		changed = false
		for i := range r.cands {
			if !allowed(i) {
				continue
			}
			curCost := r.cands[i][r.assign[i]].cost
			for ci, c := range r.cands[i] {
				if c.cost >= curCost {
					break
				}
				prev := r.assign[i]
				r.assign[i] = ci
				if lat, _ := r.eval(); lat <= r.sla {
					changed = true
					break
				}
				r.assign[i] = prev
			}
		}
	}
}

func (r fullEvalRefiner) improve() {
	r.downgrade(func(int) bool { return true })
	_, curCost := r.eval()
	const eps = 1e-12
	for improved := true; improved; {
		improved = false
		for i := range r.cands {
			curInfer := r.cands[i][r.assign[i]].infer
			for ci, c := range r.cands[i] {
				if c.infer >= curInfer || ci == r.assign[i] {
					continue
				}
				copy(r.saved, r.assign)
				r.assign[i] = ci
				if lat, _ := r.eval(); lat > r.sla {
					copy(r.assign, r.saved)
					continue
				}
				r.downgrade(func(j int) bool { return j != i })
				lat, cost := r.eval()
				if lat <= r.sla && cost < curCost-eps {
					curCost = cost
					improved = true
					break
				}
				copy(r.assign, r.saved)
			}
			if improved {
				break
			}
		}
	}
}

// referenceOptimizer is a cacheless Optimizer running the full-evaluation
// refiner.
func referenceOptimizer(topK int) *Optimizer {
	o := New(hardware.DefaultCatalog())
	o.Cache, o.TopK = nil, topK
	o.search = func(r *refiner) localSearch { return fullEvalRefiner{r} }
	return o
}

// compareRefiners runs Optimize and OptimizeWithPaperCombine on req with
// the incremental refiner and with the reference, and fails unless the
// Results are DeepEqual, PathStats.Nanos aside.
func compareRefiners(t *testing.T, label string, req Request, topK int) {
	t.Helper()
	inc := New(hardware.DefaultCatalog())
	inc.Cache, inc.TopK = nil, topK
	ref := referenceOptimizer(topK)
	for _, entry := range []struct {
		name string
		run  func(*Optimizer, Request) (Result, error)
	}{
		{"Optimize", (*Optimizer).Optimize},
		{"OptimizeWithPaperCombine", (*Optimizer).OptimizeWithPaperCombine},
	} {
		want, errWant := entry.run(ref, req)
		got, errGot := entry.run(inc, req)
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("%s %s: error mismatch: reference %v, incremental %v", label, entry.name, errWant, errGot)
		}
		if errWant == nil && !reflect.DeepEqual(withoutNanos(want), withoutNanos(got)) {
			t.Fatalf("%s %s: incremental refiner diverged from full evaluation:\n reference   %+v\n incremental %+v",
				label, entry.name, want, got)
		}
	}
}

// compareFromStart puts every node of req's graph on a random candidate
// drawn from seed — over the SLA as often as not — and requires the
// incremental refiner's downgrade and improve to leave the assignment the
// reference leaves. It reports whether the start breached the SLA.
func compareFromStart(t *testing.T, label string, req Request, seed int64) (breached bool) {
	t.Helper()
	var assigns [2][]int
	for k, o := range []*Optimizer{New(hardware.DefaultCatalog()), referenceOptimizer(1)} {
		o.Cache = nil
		req := req
		l, err := o.prepare(&req)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if err := o.resolve(req, l, &CacheStats{}); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		rng := rand.New(rand.NewSource(seed))
		for i, cands := range o.ws.cands {
			o.ws.pick[i] = rng.Intn(len(cands))
		}
		s := o.refiner(l, req.SLA)
		if k == 0 {
			breached = o.ws.ref.breached
		}
		s.downgrade(func(i int) bool { return i%2 == 0 })
		s.improve()
		assigns[k] = slices.Clone(o.ws.assign)
	}
	if !slices.Equal(assigns[0], assigns[1]) {
		t.Fatalf("%s (start seed %d): incremental refiner left %v, full evaluation %v", label, seed, assigns[0], assigns[1])
	}
	return breached
}

// fanOutApp is one OD entry fanning out into branches chains of depth
// Table I functions (the wide BenchmarkOptimizer workload).
func fanOutApp(branches, depth int) *apps.Application {
	g := dag.New()
	specs := map[dag.NodeID]*apps.FunctionSpec{"entry": apps.Functions["OD"]}
	g.MustAddNode("entry", apps.Functions["OD"].Model)
	for br := 0; br < branches; br++ {
		prev := dag.NodeID("entry")
		for d := 0; d < depth; d++ {
			id := dag.NodeID(fmt.Sprintf("b%dd%d", br, d))
			fn := apps.Functions[fuzzNames[(br+d)%len(fuzzNames)]]
			g.MustAddNode(id, fn.Model)
			specs[id] = fn
			g.MustAddEdge(prev, id)
			prev = id
		}
	}
	return &apps.Application{Name: fmt.Sprintf("FanOut-%dx%d", branches, depth), Graph: g, Specs: specs}
}

// TestRefinerMatchesFullEvaluation holds the incremental refiner to the
// full-evaluation reference on the four BenchmarkOptimizer workloads over
// an IT × SLA grid, through both entry points and from random starts, and
// checks that the random starts do reach states over the SLA.
func TestRefinerMatchesFullEvaluation(t *testing.T) {
	workloads := []*apps.Application{apps.ImageQuery(), apps.VoiceAssistant(), apps.Pipeline(12), fanOutApp(8, 4)}
	breached := 0
	for _, app := range workloads {
		profiles := profilesFor(app)
		for _, it := range []float64{1, 5, 15, 60, 300} {
			for _, sla := range []float64{0.3, 0.8, 1.4, 2, 4} {
				label := fmt.Sprintf("%s IT=%v SLA=%v", app.Name, it, sla)
				req := Request{Graph: app.Graph, Profiles: profiles, SLA: sla, IT: it, Batch: 1}
				for _, topK := range []int{1, 3} {
					compareRefiners(t, fmt.Sprintf("%s top-%d", label, topK), req, topK)
				}
				for seed := int64(1); seed <= 4; seed++ {
					if compareFromStart(t, label, req, seed) {
						breached++
					}
				}
			}
		}
	}
	if breached == 0 {
		t.Fatal("no random start breached the SLA: the early-rejection path went untested")
	}
	t.Logf("%d random starts over the SLA", breached)
}

// FuzzRefinerMatchesFullEvaluation holds the incremental refiner to the
// full-evaluation reference on fuzzed (DAG, IT, SLA, TopK) requests,
// through Optimize and OptimizeWithPaperCombine and from a random start.
func FuzzRefinerMatchesFullEvaluation(f *testing.F) {
	f.Add(uint8(3), uint64(0b111), 2.0, 15.0, uint8(1), int64(1))
	f.Add(uint8(6), uint64(0x3ff), 1.2, 5.0, uint8(3), int64(2))
	f.Add(uint8(7), uint64(0), 4.0, 300.0, uint8(2), int64(3))
	f.Add(uint8(5), uint64(0xffffffff), 0.5, 1.0, uint8(1), int64(4))
	f.Add(uint8(6), uint64(0x5a5a5a5a), 0.8, 2.0, uint8(0), int64(5))
	f.Fuzz(func(t *testing.T, nodes uint8, edges uint64, sla, it float64, topK uint8, seed int64) {
		if !(sla > 0 && sla <= 100 && it > 0 && it <= 1e5) {
			t.Skip("out of the modelled operating range")
		}
		s := optimizeStep{nodes: nodes, edges: edges, sla: sla, it: it, topK: 1 + int(topK%4)}
		req, ok := fuzzRequest(s)
		if !ok {
			t.Skip("edge mask is not a single-entry DAG")
		}
		label := fmt.Sprintf("%d nodes, edges %#x, SLA %v, IT %v, top-%d", req.Graph.Len(), edges, sla, it, s.topK)
		compareRefiners(t, label, req, s.topK)
		compareFromStart(t, label, req, seed)
	})
}
