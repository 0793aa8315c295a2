// Package core implements the paper's Optimizer Engine: the Strategy
// Optimizer's top-K path search over the multi-way configuration tree
// (§V-C1) and the Workflow Manager's DAG decomposition and combining
// (§V-C2). This is SMIless' primary contribution — the co-optimization of
// heterogeneous hardware configuration and cold-start management.
package core

import (
	"fmt"
	"math"
	"slices"

	"smiless/internal/clock"
	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/hardware"
	"smiless/internal/perfmodel"
)

// Request describes one co-optimization problem instance (Eq. 4): choose
// ⋆_k and △_k for all k minimizing Σ C_k subject to L ≤ SLA.
type Request struct {
	Graph    *dag.Graph
	Profiles map[dag.NodeID]*perfmodel.Profile
	// SLA is the end-to-end latency bound in seconds.
	SLA float64
	// IT is the conservative inter-arrival time driving the Case I/II
	// cold-start split (a low quantile: an early arrival must still find a
	// warm container).
	IT float64
	// ITMean is the expected inter-arrival time used for billing estimates
	// and the utilization cap; zero falls back to IT.
	ITMean float64
	// Batch is the per-instance batch size (1 unless the Auto-scaler has
	// engaged adaptive batching).
	Batch int
	// Interference maps each function to the expected multiplicative
	// slowdown (>= 1) of its init and inference times under the planned
	// co-location, as produced by placement.Model.PlanFactor. The search
	// scores every candidate config through the inflated times, so a
	// function whose class contends hard on packed nodes is steered toward
	// faster (or differently placed) configs. Nil — or factors of exactly
	// 1 — reproduces the interference-blind search byte-identically.
	Interference map[dag.NodeID]float64
}

// Result is the optimizer's output. Its plan maps, Eval.PerFunction and path
// traces are storage the Optimizer that returned it reuses, like the view
// LSTM.Forward returns: they stay valid until the next successful Optimize,
// OptimizeWithPaperCombine or OptimizeExact call on that Optimizer, which
// may rewrite them in place. A failed call leaves them as they were. Clone what must outlive
// that.
type Result struct {
	Plan *coldstart.Plan
	Eval coldstart.Evaluation
	// Feasible reports whether the plan meets the SLA. When false the plan
	// is the best-effort fastest configuration.
	Feasible bool
	// NodesExplored counts search-tree nodes visited (Fig. 16a measures
	// this against the chain length).
	NodesExplored int
	// Paths holds per-decomposed-path search traces, in decomposition
	// order (Fig. 16 instrumentation).
	Paths []PathStats
	// Search reports this call's evaluation-cache traffic. All values are
	// deterministic for a given Optimizer call sequence.
	Search SearchStats
}

// SearchStats instruments one Optimize call's use of the evaluation cache.
type SearchStats struct {
	// Cache holds this call's evaluation-cache hit/miss counters, all
	// levels. Zero when no cache is attached.
	Cache CacheStats
	// FromCache reports that the entire Result was served from the
	// plan-level memo without running any search.
	FromCache bool
}

// PathStats traces the search over one decomposed simple path.
type PathStats struct {
	// Length is the number of functions on the path.
	Length int
	// Explored counts search-tree nodes visited for this path (including
	// the root probe).
	Explored int
	// PerLayer[i] counts children generated while committing the i-th
	// function; the root probe belongs to no layer. Empty when the root
	// (all cost-minimal) was already feasible.
	PerLayer []int
	// Feasible reports whether this path's search met the SLA.
	Feasible bool
	// Nanos is the wall-clock duration of this path's search. It is
	// measurement-only: feeding it back into planning, or into any replayed
	// output, would break determinism.
	Nanos int64
}

// Optimizer is the Strategy Optimizer. The zero value is not usable;
// construct with New. Every call works in one workspace the Optimizer keeps
// (candidate tables, beam and refinement arrays indexed like the graph's
// dag.Layout) and builds its Result in storage the Optimizer keeps too (see
// Result), so once both have reached their high-water marks a re-plan
// without the cache allocates nothing. An Optimizer is therefore not safe
// for concurrent use.
type Optimizer struct {
	Catalog *hardware.Catalog
	// TopK is the beam width of the path search; the paper evaluates K = 1
	// and notes larger K trades search time for marginal cost gains.
	TopK int
	// Cache memoizes analytical evaluations across Optimize calls (see
	// EvalCache). New attaches a fresh cache; set nil to disable. Disabling
	// never changes results, only recomputation cost.
	Cache *EvalCache
	// Nanotime is the monotonic stopwatch behind PathStats.Nanos, the only
	// wall-time quantity the search reports (and the only field excluded
	// from determinism guarantees). New installs clock.Monotonic; tests may
	// inject a fake to make search timings deterministic. Nil disables
	// timing (Nanos stays zero).
	Nanotime func() int64

	ws workspace
	// out holds the last successful Result; the next one is built in spare,
	// and the two swap only once it is complete, so a call that fails on
	// the way leaves out untouched.
	out, spare resultStore
	// search, when set, wraps the refiner in another local search over the
	// same state; tests install the full-evaluation reference here.
	search func(*refiner) localSearch
}

// New returns an Optimizer over the given hardware catalog with top-1
// search and an attached evaluation cache.
func New(cat *hardware.Catalog) *Optimizer {
	return &Optimizer{Catalog: cat, TopK: 1, Cache: NewEvalCache(), Nanotime: clock.Monotonic}
}

// candidate is one per-function configuration option with its adaptive
// cold-start decision and the resulting per-invocation cost and inference
// latency, pre-computed once per request.
type candidate struct {
	cfg      hardware.Config
	decision coldstart.Decision
	cost     float64 // C_k(⋆, △) per invocation
	infer    float64 // I_k(⋆, batch)
}

// costOrder compares two costs for the search's stable sorts, which keep
// ties in input order (Eq. 6 ordering).
func costOrder(a, b float64) int {
	switch {
	case a < b:
		return -1
	case b < a:
		return 1
	}
	return 0
}

// QueueAwareLatency inflates a function's inference time by the expected
// queueing delay under sustained arrivals: with utilization ρ = I/ITMean,
// an M/M/1-style sojourn is I/(1−ρ). The closed-form path model otherwise
// ignores queueing entirely, which makes near-saturated cheap configs look
// deceptively attractive — the situation of Fig. 5(c), which the paper
// resolves by scaling up or batching.
//
// A candidate with ρ ≥ 1 is overloaded: arrivals outpace service, its queue
// grows without bound, and no finite sojourn exists — it returns +Inf so the
// search can never score it as feasible. (An earlier revision clamped ρ at
// 0.9, scoring an overloaded config as merely 10× its inference time, which
// let it win under loose SLAs.) Near-saturated but stable candidates,
// ρ ∈ [0.9, 1), keep the 0.9 clamp so model noise cannot explode them.
func QueueAwareLatency(infer, itMean float64) float64 {
	if itMean <= 0 {
		return infer
	}
	rho := infer / itMean
	if rho >= 1 {
		return math.Inf(1)
	}
	if rho > 0.9 {
		rho = 0.9
	}
	return infer / (1 - rho)
}

// MaxInitFactor bounds the initialization time of statically planned
// configurations to this multiple of the SLA: a flavor whose cold start is
// worth several deadlines parks an unrecoverable violation on the request
// path whenever a keep-alive lapses or a scale event hits it. Such flavors
// remain available to the Auto-scaler's predictive burst scaling, where the
// warm-up is hidden ahead of arrival.
const MaxInitFactor = 2.0

// nodeCandidates appends a function's candidates to dst[:0] sorted
// ascending by cost (Eq. 6 ordering) and returns them with the index of the
// latency-minimal one. Candidate latency is queue-aware: cheap-but-slow
// configs carry their expected queueing delay into the SLA feasibility
// check. Configurations initializing slower than MaxInitFactor SLAs are
// excluded (falling back to the full catalog only if nothing remains).
// factor is the function's expected co-location interference slowdown
// (1 = none): it inflates both init and inference time before the
// cold-start split and the cost model see them.
func (o *Optimizer) nodeCandidates(dst []candidate, prof *perfmodel.Profile, it, itMean, sla float64, batch int, factor float64) (cands []candidate, fastest int) {
	if itMean <= 0 {
		itMean = it
	}
	cands = o.appendCandidates(dst[:0], prof, it, itMean, sla, batch, factor)
	if len(cands) == 0 {
		cands = o.appendCandidates(cands, prof, it, itMean, 0, batch, factor)
	}
	slices.SortStableFunc(cands, func(a, b candidate) int { return costOrder(a.cost, b.cost) })
	for i := 1; i < len(cands); i++ {
		if cands[i].infer < cands[fastest].infer {
			fastest = i
		}
	}
	return cands, fastest
}

// appendCandidates appends one candidate per catalog configuration whose
// initialization fits MaxInitFactor SLAs (every configuration when sla <= 0).
func (o *Optimizer) appendCandidates(dst []candidate, prof *perfmodel.Profile, it, itMean, sla float64, batch int, factor float64) []candidate {
	for _, cfg := range o.Catalog.Configs {
		t, i := prof.TimesUnder(cfg, batch, factor)
		if sla > 0 && t > MaxInitFactor*sla {
			continue
		}
		d := coldstart.Decide(t, i, it)
		c := coldstart.CostPerInvocation(d, t, i, itMean, o.Catalog.UnitCost(cfg))
		dst = append(dst, candidate{cfg: cfg, decision: d, cost: c, infer: QueueAwareLatency(i, itMean)})
	}
	return dst
}

// workspace is the state of one search, kept on the Optimizer so every call
// reuses it. Per-node arrays are indexed like the request graph's
// dag.Layout (topological order).
type workspace struct {
	own    [][]candidate // candidate vectors this optimizer computed
	cands  [][]candidate // per node: own[i], or a shared cache entry
	fast   []int         // per node: index of the latency-minimal candidate
	factor []float64     // per node: quantized interference slowdown
	pick   []int         // per node: merged path choice, -1 until a path sets it

	// Path search: the latency floor of each path suffix, the beam as
	// back-to-back candidate-index vectors with their prefix cost and
	// latency, the children of one layer, and each path's trace.
	suffix     []float64
	beam, next []int
	beamAt     []beamEntry
	kids       []beamChild
	runs       []pathRun
	layers     []int // PerLayer counters of every path, back to back

	// Refinement.
	assign, saved []int
	finish, trial []float64
	ref           refiner
}

// resultStore is the storage one Result lives in: the Result and the array
// behind its paths' PerLayer counters.
type resultStore struct {
	res    Result
	layers []int
}

// beamEntry is the committed prefix cost and latency of one beam entry.
type beamEntry struct{ cost, lat float64 }

// beamChild extends beam entry parent by candidate ci.
type beamChild struct {
	parent, ci int
	cost, lat  float64
}

// pathRun traces one path search.
type pathRun struct {
	explored int
	layers   int // this path's counters in workspace.layers
	feasible bool
	nanos    int64
}

// resize returns s with length n, reusing its array when large enough.
// Contents are not preserved across a reallocation.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset sizes the per-node arrays for an n-node graph.
func (ws *workspace) reset(n int) {
	ws.cands = resize(ws.cands, n)
	ws.fast = resize(ws.fast, n)
	ws.factor = resize(ws.factor, n)
	ws.pick = resize(ws.pick, n)
	ws.assign = resize(ws.assign, n)
	ws.saved = resize(ws.saved, n)
	ws.finish = resize(ws.finish, n)
	ws.trial = resize(ws.trial, n)
	if len(ws.own) < n {
		ws.own = append(ws.own, make([][]candidate, n-len(ws.own))...)
	}
	for i := range ws.pick {
		ws.pick[i] = -1
	}
	ws.runs = ws.runs[:0]
	ws.layers = ws.layers[:0]
}

// fold merges one path's choice for node i: a function on several paths
// keeps the candidate with the shortest inference time, the first path's on
// a tie, so every path's latency stays within its own solution's bound
// (§V-C2).
func (ws *workspace) fold(i, ci int) {
	if p := ws.pick[i]; p < 0 || ws.cands[i][ci].infer < ws.cands[i][p].infer {
		ws.pick[i] = ci
	}
}

// prepare validates and normalizes req in place and readies the workspace
// for its graph. The inter-arrival times and interference factors are
// snapped onto the cache grid (QuantizeIT) whether or not a cache is
// attached, so plans do not depend on it.
func (o *Optimizer) prepare(req *Request) (*dag.Layout, error) {
	if req.Batch < 1 {
		req.Batch = 1
	}
	if !(req.SLA > 0) { // NaN too: every latency comparison would be false
		return nil, fmt.Errorf("core: SLA %v is not positive", req.SLA)
	}
	l := req.Graph.Layout()
	if l.Err != nil {
		return nil, fmt.Errorf("core: invalid graph: %w", l.Err)
	}
	req.IT = QuantizeIT(req.IT)
	req.ITMean = QuantizeIT(req.ITMean)
	ws := &o.ws
	ws.reset(len(l.Topo))
	for i, id := range l.Topo {
		ws.factor[i] = 1
		if f, ok := req.Interference[id]; ok {
			if q := QuantizeIT(f); q > 1 {
				ws.factor[i] = q
			}
		}
	}
	return l, nil
}

// resolve builds the per-node candidate table in topological order. With a
// cache attached, previously seen (profile, quantized IT, quantized mean IT,
// SLA, batch, factor) points are served from the memo; the order keeps its
// hit/miss counters deterministic.
func (o *Optimizer) resolve(req Request, l *dag.Layout, stats *CacheStats) error {
	ws := &o.ws
	for i, id := range l.Topo {
		prof, ok := req.Profiles[id]
		if !ok {
			return fmt.Errorf("core: no profile for %q", id)
		}
		f := ws.factor[i]
		if o.Cache == nil {
			ws.own[i], ws.fast[i] = o.nodeCandidates(ws.own[i], prof, req.IT, req.ITMean, req.SLA, req.Batch, f)
			ws.cands[i] = ws.own[i]
			continue
		}
		key := candKey{prof: prof, qit: req.IT, qim: req.ITMean, sla: req.SLA, batch: req.Batch, ifactor: f}
		nc := o.Cache.candidates(key, stats, func() nodeCands {
			cands, fastest := o.nodeCandidates(nil, prof, req.IT, req.ITMean, req.SLA, req.Batch, f)
			return nodeCands{byCost: cands, fastest: fastest}
		})
		ws.cands[i], ws.fast[i] = nc.byCost, nc.fastest
	}
	return nil
}

// searchPaths runs the path search on every decomposed path in order,
// folding each path's choice into the workspace, and returns the explored
// node count and whether every path met the SLA.
func (o *Optimizer) searchPaths(l *dag.Layout, sla float64) (explored int, feasible bool) {
	feasible = true
	for _, path := range l.Paths {
		var start int64
		if o.Nanotime != nil {
			start = o.Nanotime()
		}
		run := o.searchPath(path, sla)
		if o.Nanotime != nil {
			run.nanos = o.Nanotime() - start
		}
		o.ws.runs = append(o.ws.runs, run)
		explored += run.explored
		feasible = feasible && run.feasible
	}
	return explored, feasible
}

// searchPath runs the top-K path search on one simple path (node indices)
// and folds the result into the workspace. Latency along a chain is the sum
// of inference times (adaptive pre-warming hides initialization, Eq. 5).
func (o *Optimizer) searchPath(path []int, sla float64) pathRun {
	ws := &o.ws
	n := len(path)
	// suffix[i] = minimal achievable latency of functions i..n-1.
	ws.suffix = resize(ws.suffix, n+1)
	ws.suffix[n] = 0
	for k := n - 1; k >= 0; k-- {
		i := path[k]
		ws.suffix[k] = ws.suffix[k+1] + ws.cands[i][ws.fast[i]].infer
	}

	run := pathRun{explored: 1}
	// Root node T⁰: every function on its cost-minimizing candidate.
	rootLat := 0.0
	for _, i := range path {
		rootLat += ws.cands[i][0].infer
	}
	if rootLat <= sla {
		run.feasible = true
		for _, i := range path {
			ws.fold(i, 0)
		}
		return run
	}

	// Layered beam search: layer k commits a candidate for path[k]. A beam
	// entry holds the committed prefix; children extend it with candidates
	// of the next function that keep the path feasible assuming the fastest
	// configuration for the remaining suffix.
	k := max(o.TopK, 1)
	ws.beam = resize(ws.beam, n)
	ws.beamAt = append(ws.beamAt[:0], beamEntry{})
	for layer := 0; layer < n; layer++ {
		ws.kids = ws.kids[:0]
		ws.layers = append(ws.layers, 0)
		run.layers++
		count := &ws.layers[len(ws.layers)-1]
		cands := ws.cands[path[layer]]
		for b, e := range ws.beamAt {
			for ci, c := range cands {
				run.explored++
				*count++
				lat := e.lat + c.infer
				if lat+ws.suffix[layer+1] > sla {
					continue // infeasible even with fastest suffix
				}
				ws.kids = append(ws.kids, beamChild{parent: b, ci: ci, cost: e.cost + c.cost, lat: lat})
				// Candidates are cost-ascending; for top-1 the first
				// feasible child per beam entry is the greedy choice.
				if k == 1 {
					break
				}
			}
		}
		if len(ws.kids) == 0 {
			// SLA unreachable: best effort (all fastest).
			for _, i := range path {
				ws.fold(i, ws.fast[i])
			}
			return run
		}
		slices.SortStableFunc(ws.kids, func(a, b beamChild) int { return costOrder(a.cost, b.cost) })
		if len(ws.kids) > k {
			ws.kids = ws.kids[:k]
		}
		ws.next = resize(ws.next, len(ws.kids)*n)
		ws.beamAt = ws.beamAt[:0]
		for j, kid := range ws.kids {
			copy(ws.next[j*n:j*n+layer], ws.beam[kid.parent*n:kid.parent*n+layer])
			ws.next[j*n+layer] = kid.ci
			ws.beamAt = append(ws.beamAt, beamEntry{cost: kid.cost, lat: kid.lat})
		}
		ws.beam, ws.next = ws.next, ws.beam
	}
	run.feasible = true
	for pos, i := range path {
		ws.fold(i, ws.beam[pos])
	}
	return run
}

// Optimize solves the full co-optimization problem for an application DAG:
// decompose into simple paths, search each in decomposition order, combine
// the per-path solutions (fastest-inference wins on shared functions) and
// run a cost-reduction pass that downgrades functions while the SLA still
// holds.
//
// Determinism: the inter-arrival times are snapped onto the cache grid
// first (QuantizeIT), and everything after is a sequential walk over the
// graph's layout, so the returned Plan is byte-identical whether the cache
// is enabled, disabled, warm or cold, and whatever this Optimizer planned
// before. Only PathStats.Nanos (a measurement-only wall-clock reading)
// varies between runs.
func (o *Optimizer) Optimize(req Request) (Result, error) {
	l, err := o.prepare(&req)
	if err != nil {
		return Result{}, err
	}
	var stats CacheStats
	var pkey planKey
	var graphSig string
	var guard []*perfmodel.Profile
	if o.Cache != nil {
		pkey = planKey{qit: req.IT, qim: req.ITMean, sla: req.SLA, batch: req.Batch, topK: o.TopK,
			ifp: interferenceFingerprint(l, o.ws.factor)}
		graphSig = graphSignature(req.Graph)
		guard = profileGuard(req.Graph, req.Profiles)
		if res, ok := o.Cache.lookupPlan(pkey, graphSig, guard, &stats); ok {
			res.Search = SearchStats{Cache: stats, FromCache: true}
			return res, nil
		}
	}

	if err := o.resolve(req, l, &stats); err != nil {
		return Result{}, err
	}
	explored, feasible := o.searchPaths(l, req.SLA)
	r := o.refiner(l, req.SLA)
	if feasible {
		// Refinement: the greedy walk can over-commit latency budget to a
		// cheap upstream function, forcing expensive downstream configs.
		// Local search repairs this while the SLA still holds.
		r.improve()
	}
	res, err := o.result(req, l, explored, feasible, &stats)
	if err != nil {
		return Result{}, err
	}
	if o.Cache != nil {
		o.Cache.storePlan(pkey, graphSig, guard, res, &stats)
		res.Search.Cache = stats
	}
	return res, nil
}

// result builds the plan from the workspace assignment, evaluates it and
// copies out the path traces, all into o.spare, which then becomes o.out.
func (o *Optimizer) result(req Request, l *dag.Layout, explored int, feasible bool, stats *CacheStats) (Result, error) {
	ws, st := &o.ws, &o.spare
	plan := st.res.Plan
	if plan == nil {
		plan = coldstart.NewPlan()
		st.res.Plan = plan
	}
	clear(plan.Configs)
	clear(plan.Decisions)
	for i, id := range l.Topo {
		c := ws.cands[i][ws.assign[i]]
		plan.Configs[id] = c.cfg
		plan.Decisions[id] = c.decision
	}
	bill := req.ITMean
	if bill <= 0 {
		bill = req.IT
	}
	var ev coldstart.Evaluation
	var err error
	if o.Cache != nil {
		ekey := evalKey{sig: planSignature(req.Graph, plan), qbill: bill, batch: req.Batch}
		ev, err = o.Cache.evaluate(req.Graph, req.Profiles, ekey, stats, func() (coldstart.Evaluation, error) {
			return coldstart.EvaluateInto(st.res.Eval.PerFunction, req.Graph, req.Profiles, plan, o.Catalog.Pricing, bill, req.Batch)
		})
	} else {
		ev, err = coldstart.EvaluateInto(st.res.Eval.PerFunction, req.Graph, req.Profiles, plan, o.Catalog.Pricing, bill, req.Batch)
	}
	if err != nil {
		return Result{}, err
	}
	st.layers = append(st.layers[:0], ws.layers...)
	paths, layers := resize(st.res.Paths, len(ws.runs)), st.layers
	for pi, run := range ws.runs {
		paths[pi] = PathStats{Length: len(l.Paths[pi]), Explored: run.explored, Feasible: run.feasible, Nanos: run.nanos}
		if run.layers > 0 {
			paths[pi].PerLayer = layers[:run.layers:run.layers]
			layers = layers[run.layers:]
		}
	}
	st.res = Result{
		Plan:          plan,
		Eval:          ev,
		Feasible:      feasible && ev.E2ELatency <= req.SLA,
		NodesExplored: explored,
		Paths:         paths,
		Search:        SearchStats{Cache: *stats},
	}
	o.out, o.spare = o.spare, o.out
	return o.out.res, nil
}

// refiner holds the indexed state of the local search: nodes are numbered
// in topological order, plans are candidate-index vectors, and evaluation
// is array arithmetic — no maps, no allocations per trial.
//
// finish always holds the finish times of the current assignment, and
// breached whether one of them exceeds the SLA, so a trial move re-times
// only the nodes it can delay (try).
type refiner struct {
	preds    [][]int // predecessor indices per node
	cones    [][]int // per node: dag.Layout.Cone
	cands    [][]candidate
	assign   []int // current candidate index per node
	saved    []int
	finish   []float64
	trial    []float64 // finish times a running trial overwrote
	breached bool
	sla      float64
}

// localSearch is the refinement run after the paths are merged: improve for
// Optimize, downgrade for the paper's combine. The refiner is the one
// implementation outside tests.
type localSearch interface {
	downgrade(allowed func(i int) bool)
	improve()
}

// refiner starts the local search on the workspace from the merged path
// choice: each node on the first candidate with the chosen configuration,
// timed in full.
func (o *Optimizer) refiner(l *dag.Layout, sla float64) localSearch {
	ws := &o.ws
	for i, cands := range ws.cands {
		cfg := cands[ws.pick[i]].cfg
		ws.assign[i] = 0
		for ci, c := range cands {
			if c.cfg == cfg {
				ws.assign[i] = ci
				break
			}
		}
	}
	ws.ref = refiner{preds: l.Preds, cones: l.Cone, cands: ws.cands, assign: ws.assign, saved: ws.saved,
		finish: ws.finish, trial: ws.trial, sla: sla}
	if o.search != nil {
		return o.search(&ws.ref)
	}
	ws.ref.eval()
	return &ws.ref
}

// eval times the whole current assignment.
func (r *refiner) eval() {
	r.breached = false
	for i, cands := range r.cands {
		f := r.start(i) + cands[r.assign[i]].infer
		r.finish[i] = f
		r.breached = r.breached || f > r.sla
	}
}

// start is node i's start time: the latest finish among its predecessors.
func (r *refiner) start(i int) float64 {
	start := 0.0
	for _, p := range r.preds[i] {
		if f := r.finish[p]; f > start {
			start = f
		}
	}
	return start
}

// cost is the total cost of the current assignment, summed in topological
// order.
func (r *refiner) cost() (cost float64) {
	for i, cands := range r.cands {
		cost += cands[r.assign[i]].cost
	}
	return cost
}

// try moves node i to candidate ci if every finish time then stays within
// the SLA, and reports whether it did. From a feasible assignment only i's
// cone (i and the nodes reachable from it) can change finish time, so only
// the cone is re-timed — with eval's operations in eval's order, stopping
// at the first breach — and the verdict and the finish times left behind
// are eval's bits. A rejected trial restores the finish times it
// overwrote from r.trial. From an assignment that already breaches the SLA
// the trial is timed whole by eval.
func (r *refiner) try(i, ci int) bool {
	prev := r.assign[i]
	r.assign[i] = ci
	if r.breached {
		if r.eval(); !r.breached {
			return true
		}
		r.assign[i] = prev
		r.eval()
		return false
	}
	cone := r.cones[i]
	for k, j := range cone {
		f := r.start(j) + r.cands[j][r.assign[j]].infer
		if f > r.sla {
			for _, u := range cone[:k] {
				r.finish[u] = r.trial[u]
			}
			r.assign[i] = prev
			return false
		}
		r.trial[j], r.finish[j] = r.finish[j], f
	}
	return true
}

// downgrade greedily moves each node allowed to move to a cheaper candidate
// while the latency stays within the SLA, to a fixpoint.
func (r *refiner) downgrade(allowed func(i int) bool) {
	for changed := true; changed; {
		changed = false
		for i := range r.cands {
			if !allowed(i) {
				continue
			}
			curCost := r.cands[i][r.assign[i]].cost
			for ci, c := range r.cands[i] {
				if c.cost >= curCost {
					break // cost-ascending: nothing cheaper left
				}
				if r.try(i, ci) {
					changed = true
					break
				}
			}
		}
	}
}

// improve runs the coupled upgrade-then-downgrade local search until no
// move reduces total cost: plain downgrade passes interleaved with moves
// that make one function faster (freeing latency budget) and then
// re-downgrade the rest, accepted only when the total cost strictly
// decreases. The SLA holds at every accepted step, so only the cost needs
// checking after the re-downgrade.
func (r *refiner) improve() {
	r.downgrade(func(int) bool { return true })
	curCost := r.cost()
	const eps = 1e-12
	for improved := true; improved; {
		improved = false
		for i := range r.cands {
			cur := r.assign[i]
			curInfer := r.cands[i][cur].infer
			for ci, c := range r.cands[i] {
				if c.infer >= curInfer || ci == cur {
					continue // only strictly faster alternatives free budget
				}
				if !r.try(i, ci) {
					continue
				}
				copy(r.saved, r.assign)
				r.saved[i] = cur
				// Pin the upgraded node: the freed budget must go to other
				// functions, not revert this move.
				r.downgrade(func(j int) bool { return j != i })
				if cost := r.cost(); cost < curCost-eps {
					curCost = cost
					improved = true
					break
				}
				copy(r.assign, r.saved)
				r.eval()
			}
			if improved {
				break
			}
		}
	}
}
