package dag

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// diamond builds A -> {B, C} -> D.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New()
	for _, id := range []NodeID{"A", "B", "C", "D"} {
		g.MustAddNode(id, "m")
	}
	g.MustAddEdge("A", "B")
	g.MustAddEdge("A", "C")
	g.MustAddEdge("B", "D")
	g.MustAddEdge("C", "D")
	return g
}

// chain builds a linear pipeline of n nodes.
func chain(n int) *Graph {
	g := New()
	prev := NodeID("")
	for i := 0; i < n; i++ {
		id := NodeID(rune('A' + i))
		g.MustAddNode(id, "m")
		if prev != "" {
			g.MustAddEdge(prev, id)
		}
		prev = id
	}
	return g
}

func TestAddNodeDuplicate(t *testing.T) {
	g := New()
	g.MustAddNode("A", "m")
	if err := g.AddNode("A", "m"); err == nil {
		t.Error("duplicate node should fail")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New()
	g.MustAddNode("A", "m")
	g.MustAddNode("B", "m")
	if err := g.AddEdge("A", "X"); err == nil {
		t.Error("edge to unknown node should fail")
	}
	if err := g.AddEdge("X", "A"); err == nil {
		t.Error("edge from unknown node should fail")
	}
	if err := g.AddEdge("A", "A"); err == nil {
		t.Error("self edge should fail")
	}
	g.MustAddEdge("A", "B")
	if err := g.AddEdge("A", "B"); err == nil {
		t.Error("duplicate edge should fail")
	}
	if err := g.AddEdge("B", "A"); err == nil {
		t.Error("cycle should fail")
	}
}

func TestCycleDetectionTransitive(t *testing.T) {
	g := chain(4) // A->B->C->D
	if err := g.AddEdge("D", "A"); err == nil {
		t.Error("transitive cycle should fail")
	}
}

func TestTopoSort(t *testing.T) {
	g := diamond(t)
	order := g.TopoSort()
	pos := map[NodeID]int{}
	for i, n := range order {
		pos[n] = i
	}
	if len(order) != 4 {
		t.Fatalf("topo length = %d", len(order))
	}
	if !(pos["A"] < pos["B"] && pos["A"] < pos["C"] && pos["B"] < pos["D"] && pos["C"] < pos["D"]) {
		t.Errorf("topo order invalid: %v", order)
	}
}

func TestPathsDiamond(t *testing.T) {
	g := diamond(t)
	paths := g.Paths()
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(paths))
	}
	want := map[string]bool{"A B D": false, "A C D": false}
	for _, p := range paths {
		key := ""
		for i, n := range p {
			if i > 0 {
				key += " "
			}
			key += string(n)
		}
		if _, ok := want[key]; !ok {
			t.Errorf("unexpected path %q", key)
		}
		want[key] = true
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("missing path %q", k)
		}
	}
}

func TestLongestPathLen(t *testing.T) {
	if got := chain(5).LongestPathLen(); got != 5 {
		t.Errorf("chain longest = %d, want 5", got)
	}
	g := diamond(t)
	if got := g.LongestPathLen(); got != 3 {
		t.Errorf("diamond longest = %d, want 3", got)
	}
}

func TestSourcesSinks(t *testing.T) {
	g := diamond(t)
	if s := g.Sources(); len(s) != 1 || s[0] != "A" {
		t.Errorf("sources = %v", s)
	}
	if s := g.Sinks(); len(s) != 1 || s[0] != "D" {
		t.Errorf("sinks = %v", s)
	}
}

func TestParallelSubstructuresDiamond(t *testing.T) {
	g := diamond(t)
	subs := g.ParallelSubstructures()
	if len(subs) != 1 {
		t.Fatalf("substructures = %d, want 1", len(subs))
	}
	pb := subs[0]
	if pb.Start != "A" || pb.End != "D" {
		t.Errorf("fork/join = %s/%s, want A/D", pb.Start, pb.End)
	}
	if len(pb.Branches) != 2 {
		t.Errorf("branches = %d, want 2", len(pb.Branches))
	}
}

func TestParallelSubstructuresNested(t *testing.T) {
	// A -> {B -> {C, D} -> E, F} -> G: outer fork at A joins at G, inner at B joins at E.
	g := New()
	for _, id := range []NodeID{"A", "B", "C", "D", "E", "F", "G"} {
		g.MustAddNode(id, "m")
	}
	g.MustAddEdge("A", "B")
	g.MustAddEdge("A", "F")
	g.MustAddEdge("B", "C")
	g.MustAddEdge("B", "D")
	g.MustAddEdge("C", "E")
	g.MustAddEdge("D", "E")
	g.MustAddEdge("E", "G")
	g.MustAddEdge("F", "G")
	subs := g.ParallelSubstructures()
	if len(subs) != 2 {
		t.Fatalf("substructures = %d, want 2", len(subs))
	}
	// Smallest first: the inner B..E diamond has 2 interior nodes; outer has 4.
	if subs[0].Start != "B" || subs[0].End != "E" {
		t.Errorf("first substructure = %s..%s, want B..E", subs[0].Start, subs[0].End)
	}
	if subs[1].Start != "A" || subs[1].End != "G" {
		t.Errorf("second substructure = %s..%s, want A..G", subs[1].Start, subs[1].End)
	}
}

func TestParallelSubstructuresChain(t *testing.T) {
	if subs := chain(6).ParallelSubstructures(); len(subs) != 0 {
		t.Errorf("chain should have no parallel substructures, got %d", len(subs))
	}
}

func TestPathsThrough(t *testing.T) {
	g := diamond(t)
	ps := g.PathsThrough("A", "D")
	if len(ps) != 2 {
		t.Errorf("paths through A..D = %d, want 2", len(ps))
	}
	ps = g.PathsThrough("B", "D")
	if len(ps) != 1 {
		t.Errorf("paths through B..D = %d, want 1", len(ps))
	}
	if ps := g.PathsThrough("D", "A"); len(ps) != 0 {
		t.Errorf("reversed order should yield no paths, got %d", len(ps))
	}
}

func TestValidate(t *testing.T) {
	if err := New().Validate(); err == nil {
		t.Error("empty graph should fail validation")
	}
	g := diamond(t)
	if err := g.Validate(); err != nil {
		t.Errorf("diamond should validate: %v", err)
	}
	// Two sources.
	g2 := New()
	g2.MustAddNode("A", "m")
	g2.MustAddNode("B", "m")
	if err := g2.Validate(); err == nil {
		t.Error("two-source graph should fail validation")
	}
}

func TestDecomposeCoversAllNodes(t *testing.T) {
	g := diamond(t)
	covered := map[NodeID]bool{}
	for _, p := range g.Decompose() {
		for _, n := range p {
			covered[n] = true
		}
	}
	if len(covered) != g.Len() {
		t.Errorf("decompose covered %d nodes, want %d", len(covered), g.Len())
	}
}

// randomDAG builds a random layered DAG for property tests.
func randomDAG(r *rand.Rand) *Graph {
	g := New()
	layers := 2 + r.Intn(4)
	var prev []NodeID
	id := 0
	// Single entry node.
	entry := NodeID("n0")
	g.MustAddNode(entry, "m")
	id++
	prev = []NodeID{entry}
	for l := 1; l < layers; l++ {
		width := 1 + r.Intn(3)
		var cur []NodeID
		for w := 0; w < width; w++ {
			n := NodeID("n" + string(rune('0'+id)))
			id++
			g.MustAddNode(n, "m")
			// Connect to at least one node in the previous layer.
			p := prev[r.Intn(len(prev))]
			g.MustAddEdge(p, n)
			cur = append(cur, n)
		}
		prev = cur
	}
	return g
}

// Property: every topological sort respects all edges, and every enumerated
// path starts at a source and ends at a sink.
func TestTopoAndPathsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r)
		order := g.TopoSort()
		if len(order) != g.Len() {
			return false
		}
		pos := map[NodeID]int{}
		for i, n := range order {
			pos[n] = i
		}
		for _, n := range g.Nodes() {
			for _, s := range g.Successors(n) {
				if pos[n] >= pos[s] {
					return false
				}
			}
		}
		for _, p := range g.Paths() {
			if len(g.Predecessors(p[0])) != 0 || len(g.Successors(p[len(p)-1])) != 0 {
				return false
			}
			for i := 0; i+1 < len(p); i++ {
				found := false
				for _, s := range g.Successors(p[i]) {
					if s == p[i+1] {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWriteDOT(t *testing.T) {
	g := diamond(t)
	out := g.DOT("demo", map[NodeID]string{"B": "CPU-4c"})
	for _, want := range []string{
		`digraph "demo"`,
		`"A" -> "B";`,
		`"C" -> "D";`,
		`CPU-4c`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
	// Deterministic output.
	if out != g.DOT("demo", map[NodeID]string{"B": "CPU-4c"}) {
		t.Error("DOT output not deterministic")
	}
}

func TestDOTDefaultName(t *testing.T) {
	g := chain(2)
	if !strings.Contains(g.DOT("", nil), `digraph "workflow"`) {
		t.Error("default graph name missing")
	}
}

// TestLayoutRebuiltAfterChange: the compiled layout is cached until the
// graph changes, and AddNode and AddEdge each make the next reader see the
// graph as it now stands — order, indices, paths, depth and verdict.
func TestLayoutRebuiltAfterChange(t *testing.T) {
	g := chain(2) // A->B
	l := g.Layout()
	if g.Layout() != l {
		t.Fatal("an unchanged graph rebuilt its layout")
	}
	if l.Longest != 2 || len(l.Paths) != 1 || l.Err != nil {
		t.Fatalf("chain layout: longest %d, %d paths, err %v", l.Longest, len(l.Paths), l.Err)
	}

	g.MustAddNode("C", "m")
	l = g.Layout()
	if len(l.Nodes) != 3 || len(l.Topo) != 3 || l.Err == nil {
		t.Fatalf("after AddNode: %d nodes, %d in topo order, err %v (want 3, 3, orphan C unreachable)", len(l.Nodes), len(l.Topo), l.Err)
	}
	if got := g.Validate(); got == nil {
		t.Error("Validate missed the orphan node")
	}

	g.MustAddEdge("B", "C")
	l = g.Layout()
	if l.Err != nil || l.Longest != 3 || g.LongestPathLen() != 3 {
		t.Fatalf("after AddEdge: err %v, longest %d", l.Err, l.Longest)
	}
	if c := l.Index["C"]; len(l.Preds[c]) != 1 || l.Topo[l.Preds[c][0]] != "B" {
		t.Errorf("C's predecessors = %v, want [B]", l.Preds[c])
	}
	if len(l.Paths) != 1 || len(l.Paths[0]) != 3 {
		t.Errorf("paths = %v, want one path of 3", l.Paths)
	}

	g.MustAddEdge("A", "C")
	if l2 := g.Layout(); l2 == l || len(l2.Paths) != 2 {
		t.Errorf("after a second AddEdge: rebuilt %v, %d paths, want a new layout with 2", l2 != l, len(l2.Paths))
	}
}

// TestLayoutCone: each node's cone is the node and everything reachable
// from it, ascending in topological order, and nothing else.
func TestLayoutCone(t *testing.T) {
	g := New()
	for _, id := range []NodeID{"A", "B", "C", "D", "E"} {
		g.MustAddNode(id, "m")
	}
	g.MustAddEdge("A", "B")
	g.MustAddEdge("A", "C")
	g.MustAddEdge("B", "D")
	g.MustAddEdge("C", "E")
	l := g.Layout()
	want := map[NodeID][]NodeID{
		"A": {"A", "B", "C", "D", "E"},
		"B": {"B", "D"},
		"C": {"C", "E"},
		"D": {"D"},
		"E": {"E"},
	}
	for id, ids := range want {
		var got []NodeID
		for _, j := range l.Cone[l.Index[id]] {
			got = append(got, l.Topo[j])
		}
		if !slices.Equal(got, ids) {
			t.Errorf("cone of %s = %v, want %v", id, got, ids)
		}
	}
}
