package core

import (
	"math"
	"strconv"
	"strings"
	"sync"

	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/perfmodel"
)

// itGridBits sets the resolution of the inter-arrival-time quantization
// grid: ITs are snapped to the nearest point of a logarithmic grid with
// 2^(1/itGridBits) spacing (~0.54% relative step). Quantization is what
// makes the evaluation cache effective across the controller's windowed
// re-planning — successive windows predict near-identical but not
// bit-identical ITs, and without snapping every re-plan would miss.
//
// The snap is applied to the Request itself, before any search runs and
// regardless of whether a cache is attached, so plans are byte-identical
// with the cache enabled, disabled, warm or cold.
const itGridBits = 128

// QuantizeIT snaps a positive inter-arrival time onto the logarithmic
// cache grid (relative step 2^(1/128) ≈ 0.54%). Non-positive and
// non-finite values pass through unchanged.
func QuantizeIT(it float64) float64 {
	if it <= 0 || math.IsInf(it, 0) || math.IsNaN(it) {
		return it
	}
	return math.Exp2(math.Round(math.Log2(it)*itGridBits) / itGridBits)
}

// CacheStats are cumulative hit/miss counters for one EvalCache, split by
// memoization level. Optimize counts in a fixed order (plan lookup,
// candidate resolution, final evaluation), so the numbers are deterministic
// for a given call sequence — they may appear in traces and tables without
// breaking byte-identical replay.
type CacheStats struct {
	// CandidateHits/Misses count per-function candidate-set resolutions:
	// the memoized unit is the full (config, cold-start decision, cost,
	// queue-aware latency) vector for one function profile at one
	// (quantized IT, quantized mean IT, SLA, batch) operating point — i.e.
	// the coldstart.Decide/CostPerInvocation/QueueAwareLatency arithmetic
	// the search would otherwise redo per path and per refinement pass.
	CandidateHits, CandidateMisses int
	// EvalHits/Misses count whole-plan coldstart.Evaluate memoizations.
	EvalHits, EvalMisses int
	// PlanHits/Misses count whole-search memoizations: a hit returns a deep
	// copy of a previously computed Result without running any search.
	PlanHits, PlanMisses int
}

// Hits returns the total hits across all levels.
func (s CacheStats) Hits() int { return s.CandidateHits + s.EvalHits + s.PlanHits }

// Misses returns the total misses across all levels.
func (s CacheStats) Misses() int { return s.CandidateMisses + s.EvalMisses + s.PlanMisses }

// HitRate returns hits/(hits+misses), or 0 when nothing was looked up.
func (s CacheStats) HitRate() float64 {
	h, m := s.Hits(), s.Misses()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// add accumulates per-call stats into cumulative ones.
func (s *CacheStats) add(d CacheStats) {
	s.CandidateHits += d.CandidateHits
	s.CandidateMisses += d.CandidateMisses
	s.EvalHits += d.EvalHits
	s.EvalMisses += d.EvalMisses
	s.PlanHits += d.PlanHits
	s.PlanMisses += d.PlanMisses
}

// nodeCands is one function's resolved candidate set: the cost-ascending
// list plus the index of its latency-minimal entry, exactly the output of
// Optimizer.nodeCandidates.
type nodeCands struct {
	byCost  []candidate
	fastest int
}

// candKey identifies one candidate-set computation. The profile pointer
// stands in for the (function, fitted model) identity: profiles are built
// once per run and shared by reference, so pointer equality is exact and,
// unlike a NodeID, cannot collide across different applications sharing an
// optimizer by mistake. Pointers are only compared, never ordered or
// iterated, so they introduce no nondeterminism.
type candKey struct {
	prof     *perfmodel.Profile
	qit, qim float64
	sla      float64
	batch    int
	// ifactor is the function's quantized interference slowdown; exactly 1
	// whenever interference is disabled, so blind-search entries occupy a
	// single stable key point.
	ifactor float64
}

// evalKey identifies one whole-plan evaluation.
type evalKey struct {
	sig   string // plan signature over the graph's node order
	qbill float64
	batch int
}

type evalEntry struct {
	guard []*perfmodel.Profile // per-node profiles in g.Nodes() order
	ev    coldstart.Evaluation
}

// planKey identifies one full co-optimization problem modulo the graph and
// profiles, which are guarded inside the entry.
type planKey struct {
	qit, qim float64
	sla      float64
	batch    int
	topK     int
	// ifp fingerprints the request's per-function interference factors
	// (interferenceFingerprint); empty when interference is disabled.
	ifp string
}

type planEntry struct {
	graphSig string
	guard    []*perfmodel.Profile
	res      Result
}

// Cache size caps. Eviction is whole-level clearing: deterministic, simple,
// and sufficient for the access pattern (a controller's operating points
// drift slowly; a sweep that overflows a level rebuilds it on the next
// pass). Bounding matters because quantized ITs form an unbounded set over
// a long-lived controller.
const (
	maxCandEntries = 8192
	maxEvalEntries = 2048
	maxPlanEntries = 512
)

// EvalCache memoizes the Strategy Optimizer's analytical evaluations across
// Optimize calls, the way Orion and Aquatope amortize configuration search:
// the closed-form model is deterministic, so identical (function, config,
// policy, quantized IT) points always evaluate identically and recomputing
// them per window is pure waste.
//
// Three levels are memoized, coarsest first:
//
//   - plan: the entire Optimize result for one (quantized IT, quantized
//     mean IT, SLA, batch, TopK) operating point;
//   - evaluate: coldstart.Evaluate for one (plan signature, quantized
//     billing IT, batch);
//   - candidates: per-function candidate vectors embedding the
//     coldstart.Decide / CostPerInvocation / QueueAwareLatency arithmetic.
//
// Lookups happen in a fixed order within Optimize, so hit/miss counters
// are deterministic. The mutex guards a cache shared by several
// Optimizers.
//
// The zero value is not usable; construct with NewEvalCache.
type EvalCache struct {
	mu    sync.Mutex
	cands map[candKey]nodeCands
	evals map[evalKey]evalEntry
	plans map[planKey]planEntry
	stats CacheStats
}

// NewEvalCache returns an empty cache.
func NewEvalCache() *EvalCache {
	return &EvalCache{
		cands: make(map[candKey]nodeCands),
		evals: make(map[evalKey]evalEntry),
		plans: make(map[planKey]planEntry),
	}
}

// Stats returns the cumulative hit/miss counters.
func (c *EvalCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Reset drops every entry and zeroes the counters.
func (c *EvalCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cands = make(map[candKey]nodeCands)
	c.evals = make(map[evalKey]evalEntry)
	c.plans = make(map[planKey]planEntry)
	c.stats = CacheStats{}
}

// candidates returns the memoized candidate set for key, computing it with
// compute on a miss. The returned slices are shared and must be treated as
// immutable by callers (the search only reads them).
func (c *EvalCache) candidates(key candKey, stats *CacheStats, compute func() nodeCands) nodeCands {
	c.mu.Lock()
	if e, ok := c.cands[key]; ok {
		c.stats.CandidateHits++
		stats.CandidateHits++
		c.mu.Unlock()
		return e
	}
	c.mu.Unlock()
	e := compute()
	c.mu.Lock()
	if len(c.cands) >= maxCandEntries {
		c.cands = make(map[candKey]nodeCands)
	}
	c.cands[key] = e
	c.stats.CandidateMisses++
	stats.CandidateMisses++
	c.mu.Unlock()
	return e
}

// planSignature serializes a plan over the graph's deterministic node order
// so structurally identical plans map to the same key.
func planSignature(g *dag.Graph, plan *coldstart.Plan) string {
	var b strings.Builder
	for _, id := range g.Nodes() {
		b.WriteString(string(id))
		b.WriteByte('=')
		b.WriteString(plan.Configs[id].String())
		d := plan.Decisions[id]
		b.WriteByte('/')
		b.WriteString(strconv.Itoa(int(d.Policy)))
		b.WriteByte('/')
		b.WriteString(strconv.FormatFloat(d.Window, 'x', -1, 64))
		b.WriteByte('/')
		b.WriteString(strconv.FormatFloat(d.Lead, 'x', -1, 64))
		b.WriteByte(';')
	}
	return b.String()
}

// interferenceFingerprint serializes the quantized per-function
// interference factors (indexed like l.Topo) over the graph's insertion
// order. Factor-free requests produce the empty string, so the
// interference-off plan key is identical to the pre-placement one.
func interferenceFingerprint(l *dag.Layout, factor []float64) string {
	var b strings.Builder
	for _, id := range l.Nodes {
		f := factor[l.Index[id]]
		if f <= 1 {
			continue
		}
		b.WriteString(string(id))
		b.WriteByte('*')
		b.WriteString(strconv.FormatFloat(f, 'x', -1, 64))
		b.WriteByte(';')
	}
	return b.String()
}

// graphSignature fingerprints a graph's topology for the plan-level guard.
func graphSignature(g *dag.Graph) string {
	var b strings.Builder
	for _, id := range g.Nodes() {
		b.WriteString(string(id))
		b.WriteByte('<')
		for _, p := range g.Predecessors(id) {
			b.WriteString(string(p))
			b.WriteByte(',')
		}
		b.WriteByte(';')
	}
	return b.String()
}

// profileGuard captures per-node profile identity in node order.
func profileGuard(g *dag.Graph, profiles map[dag.NodeID]*perfmodel.Profile) []*perfmodel.Profile {
	ids := g.Nodes()
	out := make([]*perfmodel.Profile, len(ids))
	for i, id := range ids {
		out[i] = profiles[id]
	}
	return out
}

func sameGuard(a, b []*perfmodel.Profile) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// evaluate memoizes coldstart.Evaluate for one plan (identified by key.sig,
// a planSignature). The cached Evaluation is deep-copied on both store and
// hit so callers can mutate their copy.
func (c *EvalCache) evaluate(g *dag.Graph, profiles map[dag.NodeID]*perfmodel.Profile, key evalKey, stats *CacheStats, compute func() (coldstart.Evaluation, error)) (coldstart.Evaluation, error) {
	guard := profileGuard(g, profiles)
	c.mu.Lock()
	if e, ok := c.evals[key]; ok && sameGuard(e.guard, guard) {
		c.stats.EvalHits++
		stats.EvalHits++
		c.mu.Unlock()
		return e.ev.Clone(), nil
	}
	c.mu.Unlock()
	ev, err := compute()
	if err != nil {
		return ev, err
	}
	c.mu.Lock()
	if len(c.evals) >= maxEvalEntries {
		c.evals = make(map[evalKey]evalEntry)
	}
	c.evals[key] = evalEntry{guard: guard, ev: ev.Clone()}
	c.stats.EvalMisses++
	stats.EvalMisses++
	c.mu.Unlock()
	return ev, nil
}

// lookupPlan returns a deep copy of a memoized whole-search Result, if one
// exists for this operating point on this exact (graph, profiles) pair.
func (c *EvalCache) lookupPlan(key planKey, graphSig string, guard []*perfmodel.Profile, stats *CacheStats) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.plans[key]
	if !ok || e.graphSig != graphSig || !sameGuard(e.guard, guard) {
		return Result{}, false
	}
	c.stats.PlanHits++
	stats.PlanHits++
	return e.res.Clone(), true
}

// storePlan memoizes a completed search Result. Wall-clock path timings are
// zeroed in the stored copy: they are measurement-only and replaying them
// from a cache would misattribute time.
func (c *EvalCache) storePlan(key planKey, graphSig string, guard []*perfmodel.Profile, res Result, stats *CacheStats) {
	cp := res.Clone()
	for i := range cp.Paths {
		cp.Paths[i].Nanos = 0
	}
	cp.Search = SearchStats{}
	c.mu.Lock()
	if len(c.plans) >= maxPlanEntries {
		c.plans = make(map[planKey]planEntry)
	}
	c.plans[key] = planEntry{graphSig: graphSig, guard: guard, res: cp}
	c.stats.PlanMisses++
	stats.PlanMisses++
	c.mu.Unlock()
}

// Clone deep-copies a Result (plan maps, evaluation map, path traces), so
// the copy outlives the Optimizer's next call.
func (res Result) Clone() Result {
	out := res
	if res.Plan != nil {
		out.Plan = res.Plan.Clone()
	}
	out.Eval = res.Eval.Clone()
	out.Paths = make([]PathStats, len(res.Paths))
	copy(out.Paths, res.Paths)
	for i := range out.Paths {
		out.Paths[i].PerLayer = append([]int(nil), res.Paths[i].PerLayer...)
	}
	return out
}
