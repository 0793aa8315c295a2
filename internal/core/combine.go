package core

// OptimizeWithPaperCombine runs the Workflow Manager exactly as §V-C2
// describes it: decompose the DAG into simple paths, search each path in
// turn, then combine per-path solutions substructure by substructure —
// shared fork/join functions take the configuration with the shortest
// inference time among their per-path solutions, and the functions along
// the parallel branches are then downgraded while every path's E2E latency
// stays within the SLA.
//
// Optimize (the default entry point) extends this combine with a global
// local-search refinement; this method exists to measure what that
// refinement buys (BenchmarkAblationCombine, TestPaperCombine*).
func (o *Optimizer) OptimizeWithPaperCombine(req Request) (Result, error) {
	l, err := o.prepare(&req)
	if err != nil {
		return Result{}, err
	}
	var stats CacheStats
	if err := o.resolve(req, l, &stats); err != nil {
		return Result{}, err
	}
	// Initial merge: fastest inference wins on any shared function, so no
	// path exceeds its own solution's latency.
	explored, feasible := o.searchPaths(l, req.SLA)
	r := o.refiner(l, req.SLA)
	if feasible {
		// Combine step 3: per parallel substructure (smallest first),
		// downgrade the branch-interior functions while the whole-DAG
		// latency remains within the SLA.
		interior := make([]bool, len(l.Topo))
		for _, sub := range req.Graph.ParallelSubstructures() {
			clear(interior)
			for _, branch := range sub.Branches {
				for _, id := range branch {
					interior[l.Index[id]] = true
				}
			}
			r.downgrade(func(i int) bool { return interior[i] })
		}
	}
	return o.result(req, l, explored, feasible, &stats)
}
