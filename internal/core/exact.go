package core

import (
	"math"

	"smiless/internal/dag"
)

// OptimizeExact returns the plan of minimum Σ candidate cost over the
// candidate tables Optimize searches whose every source-to-sink path meets
// the SLA; when none does, it returns Optimize's best-effort fastest plan.
// The problem is NP-hard (§V-C); this is the paper's OPT "through
// exhaustive search", a depth-first branch-and-bound that commits one
// function at a time in a topological order finishing each branch of a
// fork before the next. It drops a candidate or prefix by
//   - cost: committed cost plus each remaining function's cheapest
//     SLA-compatible candidate reaches the best plan found (candidates are
//     cost-ascending, so the first such candidate ends the loop);
//   - latency: finish time plus the all-fastest tail exceeds the SLA, so
//     every complete assignment reached is feasible;
//   - dominance: a prefix expanded earlier at the same depth cost no more
//     and finished every function still feeding an uncommitted one no later
//     (the label rule of constrained shortest paths, which keeps independent
//     branches from multiplying each other's search).
//
// Costs are summed in the solve order; among equal-cost plans the first in
// that order wins. The Result has Optimize's shape and storage rules, with
// no path traces; NodesExplored counts the candidates tried. An attached
// cache serves candidates and evaluations, not plans.
func (o *Optimizer) OptimizeExact(req Request) (Result, error) {
	l, err := o.prepare(&req)
	if err != nil {
		return Result{}, err
	}
	var stats CacheStats
	if err := o.resolve(req, l, &stats); err != nil {
		return Result{}, err
	}
	s := newExactSearch(l, o.ws.cands, o.ws.fast, req.SLA)
	s.search(0, 0)
	if s.best != nil {
		copy(o.ws.assign, s.best)
	} else {
		copy(o.ws.assign, o.ws.fast)
	}
	return o.result(req, l, s.explored, s.best != nil, &stats)
}

// exactSlack widens the cost and latency bounds by a relative margin: a
// bound sums in another order than a complete assignment, so it can exceed
// that assignment's total by a few ulps and would otherwise cut a plan that
// ties or beats the incumbent.
const exactSlack = 1e-12

// exactSearch is one OptimizeExact call's state. Per-node arrays are
// indexed like the layout, per-depth arrays like order.
type exactSearch struct {
	preds    [][]int
	cands    [][]candidate
	order    []int       // the solve order
	tail     []float64   // per node: longest all-fastest latency after it
	rest     []float64   // per depth k: Σ cheapest SLA-compatible cost of order[k:]
	frontier [][]int     // per depth k: nodes in order[:k] with a successor in order[k:]
	seen     [][]float64 // per depth k: (cost, frontier finishes) of the undominated prefixes
	pick     []int       // per node: candidate of the assignment being extended
	best     []int       // per node: candidate of the cheapest plan found; nil until one is
	finish   []float64   // per node: finish time under pick
	sla      float64
	bestCost float64
	explored int
}

// newExactSearch derives the solve order and the bounds. The order pops the
// most recently readied function first, so few functions are in the
// frontier at once.
func newExactSearch(l *dag.Layout, cands [][]candidate, fast []int, sla float64) *exactSearch {
	n := len(l.Topo)
	s := &exactSearch{preds: l.Preds, cands: cands, tail: make([]float64, n), rest: make([]float64, n+1),
		frontier: make([][]int, n+1), seen: make([][]float64, n+1), pick: make([]int, n),
		finish: make([]float64, n), sla: sla, bestCost: math.Inf(1)}
	succ, waiting, ready := make([][]int, n), make([]int, n), []int(nil)
	for i := n - 1; i >= 0; i-- {
		if waiting[i] = len(l.Preds[i]); waiting[i] == 0 {
			ready = append(ready, i)
		}
		for _, p := range l.Preds[i] {
			s.tail[p] = max(s.tail[p], cands[i][fast[i]].infer+s.tail[i])
			succ[p] = append(succ[p], i)
		}
	}
	for len(ready) > 0 {
		i := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		s.order = append(s.order, i)
		for _, j := range succ[i] {
			if waiting[j]--; waiting[j] == 0 {
				ready = append(ready, j)
			}
		}
	}
	pos, head := make([]int, n), make([]float64, n) // head: earliest all-fastest start
	for k, i := range s.order {
		pos[i] = k
		for _, p := range l.Preds[i] {
			head[i] = max(head[i], head[p]+cands[p][fast[p]].infer)
		}
	}
	for k := n - 1; k >= 0; k-- {
		i, cheapest, last := s.order[k], math.Inf(1), k
		for _, c := range cands[i] {
			if head[i]+c.infer+s.tail[i] <= sla*(1+exactSlack) {
				cheapest = c.cost
				break
			}
		}
		s.rest[k] = s.rest[k+1] + cheapest
		for _, j := range succ[i] {
			last = max(last, pos[j])
		}
		for d := k + 1; d <= last; d++ {
			s.frontier[d] = append(s.frontier[d], i)
		}
	}
	return s
}

// search extends the assignment of order[:k], whose total cost is cost.
func (s *exactSearch) search(k int, cost float64) {
	if k == len(s.order) {
		if cost < s.bestCost {
			s.bestCost = cost
			s.best = append(s.best[:0], s.pick...)
		}
		return
	}
	if s.dominated(k, cost) {
		return
	}
	i, start := s.order[k], 0.0
	for _, p := range s.preds[i] {
		start = max(start, s.finish[p])
	}
	for ci, c := range s.cands[i] {
		if cost+c.cost+s.rest[k+1] > s.bestCost*(1+exactSlack) {
			break
		}
		s.explored++
		f := start + c.infer
		if f > s.sla || f+s.tail[i] > s.sla*(1+exactSlack) {
			continue
		}
		s.finish[i], s.pick[i] = f, ci
		s.search(k+1, cost+c.cost)
	}
}

// dominated reports whether a prefix recorded at depth k cost no more than
// this one and finished every frontier function no later: every completion
// of this prefix then completes that earlier one too, at no more cost. A
// prefix that is not dominated replaces the recorded ones it dominates.
func (s *exactSearch) dominated(k int, cost float64) bool {
	front, seen := s.frontier[k], s.seen[k]
	w, kept := len(front)+1, 0
	for j := 0; j < len(seen); j += w {
		le, ge := seen[j] <= cost, seen[j] >= cost
		for m, i := range front {
			le = le && seen[j+1+m] <= s.finish[i]
			ge = ge && seen[j+1+m] >= s.finish[i]
		}
		if le {
			return true
		}
		if !ge {
			kept += copy(seen[kept:], seen[j:j+w])
		}
	}
	seen = append(seen[:kept], cost)
	for _, i := range front {
		seen = append(seen, s.finish[i])
	}
	s.seen[k] = seen
	return false
}
