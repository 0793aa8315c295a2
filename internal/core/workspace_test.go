package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"smiless/internal/apps"
	"smiless/internal/dag"
	"smiless/internal/hardware"
	"smiless/internal/perfmodel"
)

// diffResult compares everything that must be byte-identical between a
// cached and a cacheless search: the plan, the evaluation, feasibility, and
// the search-tree traces. The measurement-only Nanos and the cache stats
// are excluded by design. Returns "" when equal.
func diffResult(g *dag.Graph, a, b Result) string {
	if sa, sb := planSignature(g, a.Plan), planSignature(g, b.Plan); sa != sb {
		return fmt.Sprintf("plan signatures differ:\n  a: %s\n  b: %s", sa, sb)
	}
	if a.Eval.E2ELatency != b.Eval.E2ELatency || a.Eval.CostPerInvocation != b.Eval.CostPerInvocation {
		return fmt.Sprintf("evaluations differ: (%v, %v) vs (%v, %v)",
			a.Eval.E2ELatency, a.Eval.CostPerInvocation, b.Eval.E2ELatency, b.Eval.CostPerInvocation)
	}
	if len(a.Eval.PerFunction) != len(b.Eval.PerFunction) {
		return fmt.Sprintf("per-function cost maps differ in size: %d vs %d",
			len(a.Eval.PerFunction), len(b.Eval.PerFunction))
	}
	for _, id := range g.Nodes() {
		if a.Eval.PerFunction[id] != b.Eval.PerFunction[id] {
			return fmt.Sprintf("per-function cost differs at %s: %v vs %v",
				id, a.Eval.PerFunction[id], b.Eval.PerFunction[id])
		}
	}
	if a.Feasible != b.Feasible {
		return fmt.Sprintf("feasibility differs: %v vs %v", a.Feasible, b.Feasible)
	}
	if a.NodesExplored != b.NodesExplored {
		return fmt.Sprintf("nodes explored differ: %d vs %d", a.NodesExplored, b.NodesExplored)
	}
	if len(a.Paths) != len(b.Paths) {
		return fmt.Sprintf("path traces differ in count: %d vs %d", len(a.Paths), len(b.Paths))
	}
	for i := range a.Paths {
		pa, pb := a.Paths[i], b.Paths[i]
		if pa.Length != pb.Length || pa.Explored != pb.Explored || pa.Feasible != pb.Feasible {
			return fmt.Sprintf("path %d traces differ: %+v vs %+v", i, pa, pb)
		}
		if len(pa.PerLayer) != len(pb.PerLayer) {
			return fmt.Sprintf("path %d layer traces differ: %v vs %v", i, pa.PerLayer, pb.PerLayer)
		}
		for j := range pa.PerLayer {
			if pa.PerLayer[j] != pb.PerLayer[j] {
				return fmt.Sprintf("path %d layer %d differs: %d vs %d", i, j, pa.PerLayer[j], pb.PerLayer[j])
			}
		}
	}
	return ""
}

// fuzzNames is a fixed sub-inventory of Table I short names the fuzzer maps
// node indices onto; the slice order is part of the corpus encoding.
var fuzzNames = []string{"IR", "FR", "HAP", "DB", "NER", "TM", "TRS", "TG"}

// fuzzGraph decodes (nodes, edges) into a single-entry DAG: n nodes labeled
// n0..n(n-1), edge bits connect i→j for i<j, and any orphan root beyond n0
// is re-rooted under n0 so the DAG keeps exactly one entry.
func fuzzGraph(nodes uint8, edges uint64) (*dag.Graph, bool) {
	n := 2 + int(nodes%7) // 2..8 nodes
	g := dag.New()
	ids := make([]dag.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = dag.NodeID(fmt.Sprintf("n%d", i))
		g.MustAddNode(ids[i], apps.Functions[fuzzNames[i%len(fuzzNames)]].Model)
	}
	bit := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if edges&(1<<uint(bit)) != 0 {
				if err := g.AddEdge(ids[i], ids[j]); err != nil {
					return nil, false
				}
			}
			bit++
		}
	}
	for i := 1; i < n; i++ {
		if len(g.Predecessors(ids[i])) == 0 {
			if err := g.AddEdge(ids[0], ids[i]); err != nil {
				return nil, false
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, false
	}
	return g, true
}

// optimizeStep is one call of a workspace fuzz sequence.
type optimizeStep struct {
	nodes   uint8
	edges   uint64
	sla, it float64
	topK    int
}

// randomStep draws a call from the same space the fuzzer explores.
func randomStep(rng *rand.Rand) optimizeStep {
	return optimizeStep{
		nodes: uint8(rng.Intn(7)),
		edges: rng.Uint64(),
		sla:   0.3 + 4*rng.Float64(),
		it:    math.Exp(rng.Float64() * 8),
		topK:  1 + rng.Intn(4),
	}
}

// fuzzRequest decodes a step into a request, or false when its edge mask
// does not encode a valid single-entry DAG.
func fuzzRequest(s optimizeStep) (Request, bool) {
	g, ok := fuzzGraph(s.nodes, s.edges)
	if !ok {
		return Request{}, false
	}
	profiles := make(map[dag.NodeID]*perfmodel.Profile, g.Len())
	for i, id := range g.TopoSort() {
		profiles[id] = apps.Functions[fuzzNames[i%len(fuzzNames)]].TrueProfile(perfmodel.DefaultUncertainty)
	}
	return Request{Graph: g, Profiles: profiles, SLA: s.sla, IT: s.it, Batch: 1}, true
}

// withoutNanos returns a copy of res with the measurement-only path timings
// zeroed.
func withoutNanos(res Result) Result {
	res = res.Clone()
	for i := range res.Paths {
		res.Paths[i].Nanos = 0
	}
	return res
}

// failingRequests derives from a valid request two that Optimize must
// reject: a NaN SLA, refused before any search, and a profile map missing
// the last function in topological order, refused only once every earlier
// function's candidates are resolved.
func failingRequests(req Request) []Request {
	nan := req
	nan.SLA = math.NaN()
	topo := req.Graph.TopoSort()
	missing := req
	missing.Profiles = make(map[dag.NodeID]*perfmodel.Profile, len(req.Profiles))
	for id, p := range req.Profiles {
		if id != topo[len(topo)-1] {
			missing.Profiles[id] = p
		}
	}
	return []Request{nan, missing}
}

// FuzzWorkspacePlanEquivalence runs one long-lived Optimizer over a
// sequence of (DAG, IT, SLA, TopK) calls — a seeded prelude, the fuzzed
// call, then one more seeded call — and checks two things:
//   - each Result is DeepEqual, PathStats.Nanos aside, to a fresh
//     Optimizer's on the same call: nothing one search leaves in the reused
//     workspace or Result storage may leak into the next search;
//   - a failing call (NaN SLA, missing profile), made after every step,
//     leaves the last successful Result DeepEqual to a Clone taken before
//     it: a caller keeps serving its last good plan.
func FuzzWorkspacePlanEquivalence(f *testing.F) {
	f.Add(uint8(3), uint64(0b111), 2.0, 15.0, uint8(1), int64(1))
	f.Add(uint8(6), uint64(0x3ff), 1.2, 5.0, uint8(3), int64(2))
	f.Add(uint8(7), uint64(0), 4.0, 300.0, uint8(2), int64(3))
	f.Add(uint8(5), uint64(0xffffffff), 0.5, 1.0, uint8(1), int64(4))
	f.Fuzz(func(t *testing.T, nodes uint8, edges uint64, sla, it float64, topK uint8, seed int64) {
		if sla <= 0 || sla > 100 || it <= 0 || it > 1e5 {
			t.Skip("out of the modelled operating range")
		}
		rng := rand.New(rand.NewSource(seed))
		var steps []optimizeStep
		for i := rng.Intn(4); i > 0; i-- {
			steps = append(steps, randomStep(rng))
		}
		steps = append(steps, optimizeStep{nodes: nodes, edges: edges, sla: sla, it: it, topK: 1 + int(topK%4)})
		steps = append(steps, randomStep(rng))

		long := New(hardware.DefaultCatalog())
		long.Cache = nil
		var last, kept Result
		planned := false
		for i, s := range steps {
			req, ok := fuzzRequest(s)
			if !ok {
				continue
			}
			fresh := New(hardware.DefaultCatalog())
			fresh.Cache = nil
			fresh.TopK = s.topK
			want, errWant := fresh.Optimize(req)
			long.TopK = s.topK
			got, errGot := long.Optimize(req)
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("step %d: error mismatch: fresh %v, reused %v", i, errWant, errGot)
			}
			if errWant == nil {
				if !reflect.DeepEqual(withoutNanos(want), withoutNanos(got)) {
					t.Fatalf("step %d (%d nodes, edges %#x, SLA %v, IT %v, top-%d): reused workspace diverged:\n fresh  %+v\n reused %+v",
						i, req.Graph.Len(), s.edges, s.sla, s.it, s.topK, want, got)
				}
				last, kept, planned = got, got.Clone(), true
			}
			for k, bad := range failingRequests(req) {
				if _, err := long.Optimize(bad); err == nil {
					t.Fatalf("step %d: failing request %d was accepted", i, k)
				}
				if planned && !reflect.DeepEqual(last, kept) {
					t.Fatalf("step %d: failing request %d changed the last successful Result:\n before %+v\n after  %+v", i, k, kept, last)
				}
			}
		}
	})
}

// TestOptimizeAllocations pins what a re-plan allocates on the control
// path (no cache attached): nothing, once the first calls have sized the
// workspace and the Result storage. The calls alternate between two
// operating points, so every call rewrites a plan with other choices.
func TestOptimizeAllocations(t *testing.T) {
	if allocsInstrumented {
		t.Skip("race and invariant builds allocate inside instrumentation")
	}
	for _, app := range []*apps.Application{apps.VoiceAssistant(), apps.AmberAlert(), apps.ImageQuery(), apps.Pipeline(12)} {
		profiles := app.TrueProfiles(perfmodel.DefaultUncertainty)
		reqs := [2]Request{
			{Graph: app.Graph, Profiles: profiles, SLA: 1.4, IT: 15, Batch: 1},
			{Graph: app.Graph, Profiles: profiles, SLA: 1.4, IT: 0.5, Batch: 1},
		}
		o := New(hardware.DefaultCatalog())
		o.Cache = nil
		var plans [2]string
		for i, req := range reqs {
			res, err := o.Optimize(req)
			if err != nil {
				t.Fatalf("%s: %v", app.Name, err)
			}
			plans[i] = planSignature(app.Graph, res.Plan)
		}
		if plans[0] == plans[1] {
			t.Fatalf("%s: fixture too weak: both operating points plan %s", app.Name, plans[0])
		}
		call := 0
		allocs := testing.AllocsPerRun(100, func() {
			call++
			if _, err := o.Optimize(reqs[call%2]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per Optimize, want 0", app.Name, allocs)
		}
	}
}
