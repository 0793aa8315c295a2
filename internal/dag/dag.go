// Package dag models the workflow graphs of DAG-based ML serving
// applications. A node is one serverless inference function; an edge means
// the downstream function consumes the upstream function's output.
//
// Beyond the basic graph structure, this package implements the two graph
// operations the paper's Workflow Manager needs (§V-C2):
//
//   - Decompose: split a DAG with parallel branches into simple sequential
//     paths so the Strategy Optimizer can search each path on its own.
//   - ParallelSubstructures: find the smallest fork/join substructures, in
//     the order the Workflow Manager combines per-path solutions.
package dag

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// NodeID identifies one function within an application DAG.
type NodeID string

// Node is a single serverless function in the workflow.
type Node struct {
	ID NodeID
	// Model names the inference model the function serves (Table I),
	// e.g. "ResNet50". Purely informational for the graph layer.
	Model string
}

// Graph is a directed acyclic graph of inference functions. The zero value
// is unusable; construct with New.
type Graph struct {
	nodes map[NodeID]*Node
	succ  map[NodeID][]NodeID
	pred  map[NodeID][]NodeID
	order []NodeID // insertion order for deterministic iteration
	// layout is the compiled index form, built on first use and dropped by
	// AddNode/AddEdge. It is atomic so graphs shared by concurrent runs can
	// build it lazily without a lock: racing builders store equal layouts.
	layout atomic.Pointer[Layout]
}

// Layout is a Graph compiled to index form, for the code that walks a DAG on
// every decision: the Strategy Optimizer, the closed-form plan evaluation and
// the controller's window loop read it instead of copying ID slices and
// building maps per call. Node i of a layout is the i-th node of Topo. A
// Layout is shared and read-only; callers must not modify its slices.
type Layout struct {
	// Nodes is the insertion order (Graph.Nodes).
	Nodes []NodeID
	// Topo is the topological order (Graph.TopoSort).
	Topo []NodeID
	// Index maps each node to its position in Topo.
	Index map[NodeID]int
	// Preds lists each node's direct predecessors by index, in edge
	// insertion order (Graph.Predecessors).
	Preds [][]int
	// Cone lists, for each node, the node itself and every node reachable
	// from it, ascending: the part of the graph a change at the node can
	// reach.
	Cone [][]int
	// Paths is the decomposition into source-to-sink paths
	// (Graph.Decompose), each as a sequence of indices.
	Paths [][]int
	// Longest is LongestPathLen.
	Longest int
	// Err is Validate's verdict.
	Err error
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes: make(map[NodeID]*Node),
		succ:  make(map[NodeID][]NodeID),
		pred:  make(map[NodeID][]NodeID),
	}
}

// AddNode inserts a function node. It returns an error when the ID already
// exists.
func (g *Graph) AddNode(id NodeID, model string) error {
	if _, ok := g.nodes[id]; ok {
		return fmt.Errorf("dag: duplicate node %q", id)
	}
	g.nodes[id] = &Node{ID: id, Model: model}
	g.order = append(g.order, id)
	g.layout.Store(nil)
	return nil
}

// MustAddNode is AddNode that panics on error; for static topologies.
func (g *Graph) MustAddNode(id NodeID, model string) {
	if err := g.AddNode(id, model); err != nil {
		panic(err)
	}
}

// AddEdge inserts a dependency from -> to. Both nodes must exist, and the
// edge must not create a cycle or duplicate an existing edge.
func (g *Graph) AddEdge(from, to NodeID) error {
	if _, ok := g.nodes[from]; !ok {
		return fmt.Errorf("dag: edge from unknown node %q", from)
	}
	if _, ok := g.nodes[to]; !ok {
		return fmt.Errorf("dag: edge to unknown node %q", to)
	}
	if from == to {
		return fmt.Errorf("dag: self edge on %q", from)
	}
	for _, s := range g.succ[from] {
		if s == to {
			return fmt.Errorf("dag: duplicate edge %q -> %q", from, to)
		}
	}
	if g.reaches(to, from) {
		return fmt.Errorf("dag: edge %q -> %q would create a cycle", from, to)
	}
	g.succ[from] = append(g.succ[from], to)
	g.pred[to] = append(g.pred[to], from)
	g.layout.Store(nil)
	return nil
}

// MustAddEdge is AddEdge that panics on error; for static topologies.
func (g *Graph) MustAddEdge(from, to NodeID) {
	if err := g.AddEdge(from, to); err != nil {
		panic(err)
	}
}

// reaches reports whether to is reachable from from.
func (g *Graph) reaches(from, to NodeID) bool {
	if from == to {
		return true
	}
	seen := map[NodeID]bool{from: true}
	stack := []NodeID{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.succ[n] {
			if s == to {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Node returns the node with the given ID, or nil.
func (g *Graph) Node(id NodeID) *Node { return g.nodes[id] }

// Nodes returns all node IDs in insertion order.
func (g *Graph) Nodes() []NodeID {
	return append([]NodeID(nil), g.order...)
}

// Successors returns the direct successors of id.
func (g *Graph) Successors(id NodeID) []NodeID {
	return append([]NodeID(nil), g.succ[id]...)
}

// Predecessors returns the direct predecessors of id.
func (g *Graph) Predecessors(id NodeID) []NodeID {
	return append([]NodeID(nil), g.pred[id]...)
}

// Sources returns all nodes without predecessors, in insertion order.
func (g *Graph) Sources() []NodeID {
	var out []NodeID
	for _, id := range g.order {
		if len(g.pred[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// Sinks returns all nodes without successors, in insertion order.
func (g *Graph) Sinks() []NodeID {
	var out []NodeID
	for _, id := range g.order {
		if len(g.succ[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// TopoSort returns the nodes in a topological order (stable with respect to
// insertion order among ready nodes).
func (g *Graph) TopoSort() []NodeID {
	return slices.Clone(g.Layout().Topo)
}

// Layout returns the graph's compiled index form, building it on first use
// after a change.
func (g *Graph) Layout() *Layout {
	if l := g.layout.Load(); l != nil {
		return l
	}
	l := g.compile()
	g.layout.Store(l)
	return l
}

// compile builds the Layout of the graph as it stands.
func (g *Graph) compile() *Layout {
	l := &Layout{
		Nodes: slices.Clone(g.order),
		Topo:  g.topoSort(),
		Index: make(map[NodeID]int, len(g.nodes)),
		Err:   g.validate(),
	}
	for i, id := range l.Topo {
		l.Index[id] = i
	}
	l.Preds = make([][]int, len(l.Topo))
	depth := make([]int, len(l.Topo))
	for i, id := range l.Topo {
		d := 1
		for _, p := range g.pred[id] {
			pi := l.Index[p]
			l.Preds[i] = append(l.Preds[i], pi)
			d = max(d, depth[pi]+1)
		}
		depth[i] = d
		l.Longest = max(l.Longest, d)
	}
	l.Cone = make([][]int, len(l.Topo))
	in := make([]bool, len(l.Topo))
	for i := range l.Topo {
		clear(in)
		in[i] = true
		l.Cone[i] = []int{i}
		for j := i + 1; j < len(l.Topo); j++ {
			for _, p := range l.Preds[j] {
				if in[p] {
					in[j] = true
					l.Cone[i] = append(l.Cone[i], j)
					break
				}
			}
		}
	}
	for _, p := range g.Paths() {
		path := make([]int, len(p))
		for k, id := range p {
			path[k] = l.Index[id]
		}
		l.Paths = append(l.Paths, path)
	}
	return l
}

// topoSort is Kahn's algorithm, taking ready nodes in insertion order.
func (g *Graph) topoSort() []NodeID {
	indeg := make(map[NodeID]int, len(g.nodes))
	for _, id := range g.order {
		indeg[id] = len(g.pred[id])
	}
	var ready []NodeID
	for _, id := range g.order {
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	out := make([]NodeID, 0, len(g.nodes))
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		out = append(out, n)
		for _, s := range g.succ[n] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return out
}

// Paths enumerates every source-to-sink path, each as a slice of node IDs.
// Paths are returned in a deterministic order.
func (g *Graph) Paths() [][]NodeID {
	var out [][]NodeID
	var walk func(n NodeID, prefix []NodeID)
	walk = func(n NodeID, prefix []NodeID) {
		prefix = append(prefix, n)
		succ := g.succ[n]
		if len(succ) == 0 {
			out = append(out, append([]NodeID(nil), prefix...))
			return
		}
		for _, s := range succ {
			walk(s, prefix)
		}
	}
	for _, src := range g.Sources() {
		walk(src, nil)
	}
	return out
}

// LongestPathLen returns the number of nodes on the longest source-to-sink
// path. The paper's optimizer complexity is governed by this quantity.
func (g *Graph) LongestPathLen() int { return g.Layout().Longest }

// PathsThrough returns all source-to-sink paths that include both from and
// to (in that order).
func (g *Graph) PathsThrough(from, to NodeID) [][]NodeID {
	var out [][]NodeID
	for _, p := range g.Paths() {
		fi, ti := -1, -1
		for i, n := range p {
			if n == from {
				fi = i
			}
			if n == to {
				ti = i
			}
		}
		if fi >= 0 && ti >= 0 && fi < ti {
			out = append(out, p)
		}
	}
	return out
}

// Decompose splits the DAG into simple sequential paths covering every edge:
// exactly the source-to-sink path set. The Strategy Optimizer runs the basic
// path-search algorithm on each returned chain independently (§V-C2).
func (g *Graph) Decompose() [][]NodeID {
	return g.Paths()
}

// ParallelBranch describes a smallest fork/join substructure: Start is the
// function where parallel branches fork, End where they join, and Branches
// holds the interior node sequences of each branch (possibly empty for a
// direct Start->End edge).
type ParallelBranch struct {
	Start, End NodeID
	Branches   [][]NodeID
}

// ParallelSubstructures finds fork/join pairs in the order the Workflow
// Manager processes them: smallest (fewest interior nodes) first. A pair
// (s, e) qualifies when s has out-degree > 1 and every path leaving s next
// reaches e, with e the earliest such re-convergence point.
func (g *Graph) ParallelSubstructures() []ParallelBranch {
	var out []ParallelBranch
	for _, s := range g.Layout().Topo {
		if len(g.succ[s]) < 2 {
			continue
		}
		e, ok := g.join(s)
		if !ok {
			continue
		}
		pb := ParallelBranch{Start: s, End: e}
		seen := map[string]bool{}
		for _, p := range g.PathsThrough(s, e) {
			var interior []NodeID
			in := false
			for _, n := range p {
				if n == e {
					break
				}
				if in {
					interior = append(interior, n)
				}
				if n == s {
					in = true
				}
			}
			key := fmt.Sprint(interior)
			if !seen[key] {
				seen[key] = true
				pb.Branches = append(pb.Branches, interior)
			}
		}
		out = append(out, pb)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return interiorSize(out[i]) < interiorSize(out[j])
	})
	return out
}

func interiorSize(pb ParallelBranch) int {
	n := 0
	for _, b := range pb.Branches {
		n += len(b)
	}
	return n
}

// join returns the earliest common descendant of all successors of s, i.e.
// the join node of the parallel substructure forking at s.
func (g *Graph) join(s NodeID) (NodeID, bool) {
	// Count, for each node, how many of s's successor-subtrees reach it;
	// the earliest (in topo order) node reached by all branches is the join.
	branches := g.succ[s]
	reach := make(map[NodeID]int, len(g.nodes))
	for _, b := range branches {
		seen := map[NodeID]bool{}
		stack := []NodeID{b}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[n] {
				continue
			}
			seen[n] = true
			reach[n]++
			stack = append(stack, g.succ[n]...)
		}
	}
	for _, n := range g.Layout().Topo {
		if reach[n] == len(branches) {
			return n, true
		}
	}
	return "", false
}

// Validate checks the structural invariants an application DAG must satisfy:
// at least one node, exactly one source (the entry function that receives
// the user request), and all nodes reachable from it.
func (g *Graph) Validate() error { return g.Layout().Err }

func (g *Graph) validate() error {
	if len(g.nodes) == 0 {
		return fmt.Errorf("dag: empty graph")
	}
	srcs := g.Sources()
	if len(srcs) != 1 {
		return fmt.Errorf("dag: application must have exactly one entry function, got %d", len(srcs))
	}
	seen := map[NodeID]bool{}
	stack := []NodeID{srcs[0]}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, g.succ[n]...)
	}
	if len(seen) != len(g.nodes) {
		return fmt.Errorf("dag: %d of %d nodes unreachable from entry", len(g.nodes)-len(seen), len(g.nodes))
	}
	return nil
}
