package core

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/floorplan"
	"repro/internal/graph"
	"repro/internal/iso"
	"repro/internal/primitives"
)

// ErrNoACG is returned when the problem has no application graph.
var ErrNoACG = errors.New("decompose: nil or empty ACG")

// ErrNoLibrary is returned when the problem has no communication library.
var ErrNoLibrary = errors.New("decompose: nil or empty library")

// Solve runs the branch-and-bound decomposition of Figure 3 and returns
// the minimum-cost legal decomposition together with search statistics.
//
// If every complete decomposition violates the constraints, Best is nil.
// On timeout the best decomposition found so far (possibly nil) is
// returned with Stats.TimedOut set.
func Solve(p Problem) (Result, error) {
	return SolveContext(context.Background(), p)
}

// SolveContext is Solve with cancellation: the search stops early when the
// context is done (Stats.Canceled) or its deadline — combined with
// Options.Timeout, whichever is sooner — expires (Stats.TimedOut), and
// returns the best decomposition found so far.
//
// The search runs on Options.Parallelism concurrent workers. The ACG is
// frozen once into an immutable CSR (graph.Frozen); each worker performs
// depth-first branch-and-bound over a partition of the top-level candidate
// subtrees, carrying only an edge-subset bitmask (graph.EdgeMask) of the
// live edges instead of mutated graph copies — a tree step is a bitmask
// clone-and-clear, and the remaining graph is only materialized back into
// map form at improving leaves. The incumbent bound is shared atomically so
// a bound found in one subtree prunes all others. The returned
// decomposition is identical at every worker count: the incumbent orders
// complete decompositions by (cost, rank sequence), a total order
// independent of discovery timing. (When a timeout or cancellation
// interrupts the search, the partial result may of course depend on how far
// each worker got.)
func SolveContext(ctx context.Context, p Problem) (Result, error) {
	if p.ACG == nil || p.ACG.NodeCount() == 0 {
		return Result{}, ErrNoACG
	}
	if p.Library == nil || p.Library.Len() == 0 {
		return Result{}, ErrNoLibrary
	}
	for _, e := range p.ACG.Edges() {
		if e.Volume < 0 || e.Bandwidth < 0 {
			return Result{}, fmt.Errorf("decompose: edge %v has negative annotation", e)
		}
	}

	sh, err := newShared(ctx, &p)
	if err != nil {
		return Result{}, err
	}
	// A shared cache carries counters from earlier solves; snapshot them
	// so Stats reports this solve's hits and misses, not the sweep's.
	var hits0, misses0 uint64
	if sh.cache != nil {
		hits0, misses0 = sh.cache.hits.Load(), sh.cache.misses.Load()
	}
	// Figure 3: currentCost = 0; minCost = inf (or the warm-start seed).
	sh.inc.init(p.Options.InitialBound)

	// The root node is explored once, here; its candidate expansions become
	// the work units the workers partition among themselves.
	root := sh.newWorker()
	root.stats.NodesExplored++
	branches := root.collectRootBranches()

	workers := []*worker{root}
	if root.stopped() {
		// The deadline expired or the context was canceled during the root
		// expansion itself: stopped() has latched the flags, and an empty
		// branch list must not be mistaken for a root leaf.
	} else if len(branches) == 0 {
		// No library graph matches the input at all: the root is a leaf and
		// the whole ACG is the remainder.
		root.leaf(sh.fullMask, nil, nil, 0, 0, sh.totalWeight)
	} else {
		par := p.Options.Parallelism
		if par <= 0 {
			par = runtime.GOMAXPROCS(0)
		}
		if par > len(branches) {
			par = len(branches)
		}
		var wg sync.WaitGroup
		for i := 1; i < par; i++ {
			w := sh.newWorker()
			workers = append(workers, w)
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.run(branches)
			}()
		}
		root.run(branches)
		wg.Wait()
	}

	var stats Stats
	for _, w := range workers {
		stats.add(w.stats)
	}
	stats.Workers = len(workers)
	stats.TimedOut = sh.timedOut.Load()
	stats.Canceled = sh.canceled.Load()
	if sh.cache != nil {
		stats.IsoCacheHits = int(sh.cache.hits.Load() - hits0)
		stats.IsoCacheMisses = int(sh.cache.misses.Load() - misses0)
	}
	stats.Elapsed = time.Since(sh.start)
	return Result{Best: sh.inc.take(), Stats: stats}, nil
}

// newShared prepares the per-solve state: the frozen ACG, the per-edge
// constants, the compiled primitive plans, the deadline, the effective
// limits and the match cache.
func newShared(ctx context.Context, p *Problem) (*shared, error) {
	sh := &shared{p: p, ctx: ctx, start: time.Now()}
	sh.facg = p.ACG.Freeze()
	sh.fullMask = graph.FullEdgeMask(sh.facg.EdgeCount())
	sh.minEdge, sh.remEdge = edgeCostConstants(p, sh.facg)
	sh.latWeight, sh.totalWeight = latencyWeights(sh.facg)
	sh.edgeSigs = edgeSigTable(sh.facg)
	sh.centers, sh.placed = vertexCenters(p, sh.facg)
	sh.plans = make([]primPlan, len(p.Library.Primitives()))
	for i, prim := range p.Library.Primitives() {
		plan, err := compilePlan(prim)
		if err != nil {
			return nil, err
		}
		sh.plans[i] = plan
	}
	if p.Options.Timeout > 0 {
		sh.deadline = sh.start.Add(p.Options.Timeout)
	}
	if d, ok := ctx.Deadline(); ok && (sh.deadline.IsZero() || d.Before(sh.deadline)) {
		sh.deadline = d
	}
	sh.matchLimit = p.Options.MatchLimit
	if sh.matchLimit == 0 {
		sh.matchLimit = DefaultMatchLimit
	}
	sh.isoLimit = p.Options.IsoLimit
	if sh.isoLimit == 0 {
		sh.isoLimit = DefaultIsoLimit
	}
	if !p.Options.DisableIsoCache {
		if p.Options.MatchCache != nil {
			sh.cache = p.Options.MatchCache.inner
		} else {
			sh.cache = newMatchCache(p.Options.IsoCacheEntries)
		}
		sh.cacheMinCost = p.Options.IsoCacheMinCost
		if sh.cacheMinCost == 0 {
			sh.cacheMinCost = DefaultIsoCacheMinCost
		} else if sh.cacheMinCost < 0 {
			sh.cacheMinCost = 0
		}
	}
	return sh, nil
}

// shared is the state all DFS workers of one solve see: the read-only
// problem, its frozen CSR form, the deadline/cancellation signals, the
// memoized match cache and the incumbent best decomposition.
type shared struct {
	p   *Problem
	ctx context.Context

	// facg is the ACG frozen once per solve; every remaining graph of the
	// search is facg plus a live-edge bitmask. fullMask has every edge set;
	// edgeSigs[e] is edge e's signature term (see graphSig). plans are the
	// library primitives compiled once, indexed like Library.Primitives().
	facg     *graph.Frozen
	fullMask graph.EdgeMask
	edgeSigs []graphSig
	plans    []primPlan

	// centers[i]/placed[i] are ACG vertex i's core center and whether the
	// placement has it; nil in link mode or without a placement.
	centers []floorplan.Point
	placed  []bool

	// minEdge/remEdge are the energy-mode per-edge cost constants, shared
	// read-only by every worker's coster (nil in link mode).
	minEdge, remEdge []float64

	// latWeight[e] is edge e's weight in the latency objective (its
	// volume, or 1 for every edge when the ACG carries no volume at all);
	// totalWeight is their sum, the AvgHops denominator.
	latWeight   []float64
	totalWeight float64

	matchLimit int
	isoLimit   int
	deadline   time.Time
	start      time.Time

	cache        *matchCache
	cacheMinCost time.Duration
	inc          incumbent
	next         atomic.Int64 // index of the next unclaimed root branch

	stop     atomic.Bool
	timedOut atomic.Bool
	canceled atomic.Bool
}

func (sh *shared) newWorker() *worker {
	return &worker{sh: sh, coster: newCoster(sh.p, sh.facg, sh.minEdge, sh.remEdge)}
}

// worker runs depth-first branch-and-bound over root branches it claims
// from the shared counter. Its statistics are local (merged after the
// search) so the hot path stays free of shared writes.
type worker struct {
	sh      *shared
	coster  coster
	stats   Stats
	matcher iso.Matcher
	scratch matchScratch
}

// stopped reports whether the search should halt, latching the shared stop
// flag on the first deadline expiry or context cancellation so all workers
// wind down together.
func (w *worker) stopped() bool {
	sh := w.sh
	if sh.stop.Load() {
		return true
	}
	if !sh.deadline.IsZero() && time.Now().After(sh.deadline) {
		sh.timedOut.Store(true)
		sh.stop.Store(true)
		return true
	}
	select {
	case <-sh.ctx.Done():
		sh.canceled.Store(true)
		sh.stop.Store(true)
		return true
	default:
	}
	return false
}

// branch is one top-level work unit: a candidate expansion of the root.
type branch struct {
	cand candidate
	sig  graphSig // signature of the ACG minus the branch's covered edges
}

// collectRootBranches mirrors the expansion step of dfs at the tree root,
// where minRank is empty so every candidate of every primitive branches.
func (w *worker) collectRootBranches() []branch {
	sh := w.sh
	live := sh.facg.EdgeCount()
	nodes := sh.facg.NodeCount()
	rootSig := graphSigOfFrozen(sh.facg)
	var out []branch
	for primIdx := range sh.plans {
		if !sh.plans[primIdx].fits(live, nodes) {
			continue
		}
		for _, cand := range w.enumerate(primIdx, sh.fullMask, rootSig) {
			out = append(out, branch{cand: cand, sig: rootSig.without(cand.coveredIDs, sh.edgeSigs)})
		}
	}
	return out
}

// run claims root branches until none remain, exploring each subtree
// depth-first.
func (w *worker) run(branches []branch) {
	for {
		i := int(w.sh.next.Add(1)) - 1
		if i >= len(branches) {
			return
		}
		if w.stopped() {
			return
		}
		b := branches[i]
		w.stats.MatchingsTried++
		m := b.cand.match
		m.Depth = 0
		mask := w.sh.fullMask.Without(b.cand.coveredIDs)
		w.dfs(mask, w.sh.facg.EdgeCount()-len(b.cand.coveredIDs), b.sig, []Match{m}, []string{b.cand.rank}, m.Cost, b.cand.wHops, w.sh.totalWeight-b.cand.weight)
	}
}

// dfs explores one decomposition-tree node: mask selects the live edges of
// the graph still to cover (live is their count), matches the path from the
// root, ranks the rankOf of each match, cost the accumulated match cost.
// wHops carries the weighted hop count of the matches taken so far and
// liveWeight the latency weight still live in mask; together they give the
// admissible latency lower bound of every leaf below this node.
//
// Because matches in one decomposition are pairwise edge-disjoint, a
// decomposition is a *set* of matches: every permutation of the same set
// reaches the same leaf. The search therefore expands matches in canonical
// rank order (library index, then covered edge ids) — only candidates
// ranking above the last expanded match branch, which eliminates the
// factorial permutation blow-up without excluding any decomposition.
func (w *worker) dfs(mask graph.EdgeMask, live int, sig graphSig, matches []Match, ranks []string, cost float64, wHops, liveWeight float64) {
	if w.stopped() {
		return
	}
	w.stats.NodesExplored++

	// Latency ceiling (the frontier sweep's ε-constraint): every leaf
	// below this node covers each live edge with at least one hop at its
	// weight, so (wHops+liveWeight)/totalWeight lower-bounds its AvgHops —
	// computed with the same operations as the leaf's AvgHops, so a
	// decomposition sitting exactly on the ceiling is never pruned by a
	// rounding mismatch. This is a feasibility condition, not the
	// optimality bound, so it applies under DisableBound too.
	slack := math.Inf(1)
	if max := w.sh.p.Options.MaxLatency; max > 0 && w.sh.totalWeight > 0 {
		if (wHops+liveWeight)/w.sh.totalWeight > max {
			w.stats.BranchesPruned++
			return
		}
		// Weighted extra-hop budget the subtree has left before it would
		// cross the ceiling; feeds the latency-aware piece of the bound.
		slack = max*w.sh.totalWeight - wHops - liveWeight
	}

	// Figure 3 bound: currentCost + minimum remaining cost vs minCost.
	// canBeat also resolves the equal-cost case canonically — the subtree
	// is kept only if a decomposition extending this rank prefix could
	// still order before the incumbent — so pruning never depends on which
	// worker found the incumbent first.
	if !w.sh.p.Options.DisableBound {
		if !w.sh.inc.canBeat(cost+w.coster.lowerBoundMask(mask, live, slack), ranks) {
			w.stats.BranchesPruned++
			return
		}
	}

	nodes := w.sh.facg.NodeCount()
	minRank := ranks[len(ranks)-1]
	minPrim := int(minRank[0])<<8 | int(minRank[1])
	expanded := false
	for primIdx := range w.sh.plans {
		if !w.sh.plans[primIdx].fits(live, nodes) {
			continue
		}
		if primIdx < minPrim {
			// Canonical ordering: no candidate of this primitive may
			// expand below a higher-ranked match; the permutation that
			// expands it earlier covers that part of the space.
			continue
		}
		cands := w.enumerate(primIdx, mask, sig)
		for _, cand := range cands {
			if w.stopped() {
				return
			}
			if cand.rank <= minRank {
				continue
			}
			expanded = true
			w.stats.MatchingsTried++
			cand.match.Depth = len(matches)
			next := mask.Without(cand.coveredIDs)
			w.dfs(next, live-len(cand.coveredIDs), sig.without(cand.coveredIDs, w.sh.edgeSigs), append(matches, cand.match), append(ranks, cand.rank), cost+cand.match.Cost, wHops+cand.wHops, liveWeight-cand.weight)
		}
	}

	if expanded {
		return
	}
	w.leaf(mask, matches, ranks, cost, wHops, liveWeight)
}

// leaf handles a node with no expandable matching. In the exhaustive
// search this coincides with the paper's leaf condition (no library graph
// matches the remaining graph, Figure 3: "ndCost = Cost of the Remaining
// Graph"). Under the match cap or the canonical-order filter a node may
// still have matches elsewhere in rank space; recording the leaf keeps the
// search sound — the result remains a legal exact-cover decomposition,
// with the un-expanded structure absorbed by the remainder.
//
// The remaining graph is materialized from the bitmask only here, and only
// after the incumbent check: interior tree nodes never rebuild map graphs.
func (w *worker) leaf(mask graph.EdgeMask, matches []Match, ranks []string, cost float64, wHops, liveWeight float64) {
	w.stats.LeavesReached++
	// Every remainder edge is a dedicated single-hop link, so the live
	// weight is exactly its weighted hop contribution.
	var avgHops float64
	if w.sh.totalWeight > 0 {
		avgHops = (wHops + liveWeight) / w.sh.totalWeight
	}
	if max := w.sh.p.Options.MaxLatency; max > 0 && avgHops > max {
		w.stats.ConstraintFails++
		return
	}
	rc := w.coster.remainderCostMask(mask)
	total := cost + rc
	if !w.sh.inc.canBeat(total, ranks) {
		return
	}
	d := &Decomposition{
		Matches:       append([]Match(nil), matches...),
		Remainder:     w.sh.facg.Materialize(mask),
		RemainderCost: rc,
		Cost:          total,
		AvgHops:       avgHops,
	}
	d.Remainder.SetName("remainder")
	if !w.coster.checkConstraints(d) {
		w.stats.ConstraintFails++
		return
	}
	w.sh.inc.offer(d, append([]string(nil), ranks...))
}

// incumbent is the best feasible decomposition found so far, shared by all
// workers. The cost is mirrored in an atomic word so the hot pruning path
// avoids the mutex; the mutex guards the (cost, sig, best) triple for the
// exact equal-cost comparisons.
//
// Decompositions are ordered by (cost, rank sequence): lower cost wins,
// and among equal costs the lexicographically smaller rank sequence
// wins (seqLess). This is a strict total order over distinct
// decompositions — disjoint matches always differ in cover key, so two
// distinct decompositions differ in their rank sequences — which is what
// makes the parallel search's result independent of worker count.
type incumbent struct {
	bits atomic.Uint64 // Float64bits of the incumbent cost

	mu   sync.RWMutex
	cost float64
	sig  []string
	best *Decomposition
}

// init resets the incumbent. A positive seed warm-starts it as an
// EXCLUSIVE ceiling: pruning behaves as if a decomposition fractionally
// cheaper than the seed were already known, so the search hunts only
// strict improvements and prunes every subtree that can at best tie the
// seed — including the (often vast) set of equal-cost sig variants a
// cold solve must enumerate to canonicalize ties. When no strict
// improvement exists the solve ends with best == nil, which the frontier
// sweep reads as "this ε-point is dominated by its predecessor".
//
// The margin below the seed absorbs accumulation-order float noise: the
// admissible lower bound sums per-edge minima in mask order while a
// leaf's total accumulates match costs in path order, so an exact tie of
// the seed can land a few ulps on either side of it. The relative margin
// (~1e7 times the accumulated rounding noise, far below any real cost
// gap) keeps such ties out while provably admitting every genuine
// improvement, so a warm solve that does improve returns the
// byte-identical result of a cold solve.
func (in *incumbent) init(seed float64) {
	in.cost = math.Inf(1)
	if seed > 0 {
		in.cost = seed * (1 - 1e-9)
	}
	in.bits.Store(math.Float64bits(in.cost))
}

// canBeat reports whether a decomposition of the given cost whose rank
// sequence starts with (or equals) seq could still order before the
// incumbent. For a leaf, cost and seq are exact; for an internal node,
// cost is the admissible lower bound and seq the rank prefix — every leaf
// below the node has cost >= the bound and a rank sequence >= seq, so a
// false answer soundly prunes the subtree.
func (in *incumbent) canBeat(cost float64, seq []string) bool {
	// Lock-free fast path: the atomic mirror only ever decreases, so a
	// stale read is conservative in both directions.
	c := math.Float64frombits(in.bits.Load())
	if cost < c {
		return true
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	if cost != in.cost {
		return cost < in.cost
	}
	if in.best == nil {
		// The incumbent is a warm-start threshold, not a real
		// decomposition: anything at exactly the threshold can still
		// beat it. (Unreachable in practice — the threshold sits a
		// relative margin below any achievable cost — but kept so the
		// tie rules never depend on that.)
		return true
	}
	return seqLess(seq, in.sig)
}

// offer installs d as the incumbent if it orders before the current one.
// A warm-start threshold (best == nil) loses every equal-cost tie.
func (in *incumbent) offer(d *Decomposition, sig []string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if d.Cost > in.cost || (d.Cost == in.cost && in.best != nil && !seqLess(sig, in.sig)) {
		return false
	}
	in.cost, in.sig, in.best = d.Cost, sig, d
	in.bits.Store(math.Float64bits(d.Cost))
	return true
}

// take returns the final best decomposition (nil if none was feasible).
func (in *incumbent) take() *Decomposition {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.best
}

// seqLess orders rank sequences lexicographically element-wise, with a
// proper prefix ordering before its extensions.
func seqLess(a, b []string) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// candidate pairs a costed match with the ACG edges it covers, as
// ascending frozen edge ids, and its canonical expansion rank (rankOf).
// wHops/weight are its latency-objective contributions — the weighted hop
// count of its mapped routes and the latency weight of its covered edges.
// All of it is computed once, when the candidate survives the match cap,
// because it depends only on the match, never on the live mask, so cached
// candidate lists stay valid across tree nodes and across sweep solves.
type candidate struct {
	match      Match
	coveredIDs []int32
	rank       string
	wHops      float64
	weight     float64
}

// latencyWeights computes the per-edge latency weights and their total:
// edge volumes, or 1 per edge when the whole ACG carries no volume (a
// pure-connectivity graph still has a meaningful average hop count).
func latencyWeights(facg *graph.Frozen) ([]float64, float64) {
	n := facg.EdgeCount()
	w := make([]float64, n)
	var totalVol float64
	for i := 0; i < n; i++ {
		totalVol += facg.Volume(i)
	}
	var total float64
	for i := 0; i < n; i++ {
		if totalVol > 0 {
			w[i] = facg.Volume(i)
		} else {
			w[i] = 1
		}
		total += w[i]
	}
	return w, total
}

// enumerate lists the matchings of one primitive in the remaining graph
// (the frozen ACG restricted to mask), deduplicated by covered edge set
// (keeping the cheapest mapping — two matchings that remove the same edges
// lead to identical subtrees, so only the cheaper embedding can belong to
// the optimum), ranked by cost, and capped at the match limit.
//
// The matching step works on dense arrays only: VF2 writes each mapping
// as a pattern-to-ACG index vector into the worker's Matcher buffer,
// scoreMappings derives its covered edge ids and cost from the
// primitive's plan, and selectCovers dedups and ranks them. Only the
// candidates that survive the cap get an iso.Mapping, an id slice and a
// rank string.
//
// The whole result is memoized in the shared match cache, keyed by
// primitive index plus the incremental signature of the remaining graph:
// distinct match orders reconverge on the same remaining graph, and a hit
// skips not just the VF2 enumeration but the scoring and dedup of up to
// IsoLimit raw mappings. Caching the finished candidate list (at most
// MatchLimit entries) rather than the raw mapping set keeps the retained
// memory per entry tiny.
func (w *worker) enumerate(primIdx int, mask graph.EdgeMask, sig graphSig) []candidate {
	cacheKey := matchKey{prim: primIdx, sig: sig}
	var missStart time.Time
	if w.sh.cache != nil {
		if cands, ok := w.sh.cache.get(cacheKey); ok {
			return cands
		}
		missStart = time.Now()
	}
	opts := iso.Options{}
	if w.sh.isoLimit > 0 {
		opts.Limit = w.sh.isoLimit
	}
	if w.sh.p.Options.IsoTimeout > 0 {
		opts.Deadline = time.Now().Add(w.sh.p.Options.IsoTimeout)
	}
	if !w.sh.deadline.IsZero() && (opts.Deadline.IsZero() || w.sh.deadline.Before(opts.Deadline)) {
		opts.Deadline = w.sh.deadline
	}
	plan := &w.sh.plans[primIdx]
	flat, err := w.matcher.FindAll(plan.pat, w.sh.facg, mask, opts)
	if err != nil && len(flat) == 0 {
		return nil
	}

	pn, ne := plan.pat.NodeCount(), len(plan.edges)
	sc := &w.scratch
	w.scoreMappings(plan, flat)
	groups := sc.selectCovers(len(flat)/pn, ne, w.sh.matchLimit)
	cands := make([]candidate, len(groups))
	patIDs, acgIDs := plan.pat.IDs(), w.sh.facg.IDs()
	for i, g := range groups {
		r := int(g.best)
		mp := make(iso.Mapping, pn)
		for pi, ti := range flat[r*pn : (r+1)*pn] {
			mp[patIDs[pi]] = acgIDs[ti]
		}
		ids := append([]int32(nil), sc.cover(r, ne)...)
		var wh, wt float64
		for j, e := range ids {
			lw := w.sh.latWeight[e]
			wt += lw
			wh += lw * plan.hops[sc.coverEdge[r*ne+j]]
		}
		cands[i] = candidate{
			match:      Match{Primitive: plan.prim, Mapping: mp, Cost: sc.costs[r]},
			coveredIDs: ids,
			rank:       rankOf(primIdx, ids),
			wHops:      wh,
			weight:     wt,
		}
	}
	if w.sh.cache != nil && err == nil && time.Since(missStart) >= w.sh.cacheMinCost {
		// Retain only results that were genuinely expensive to compute:
		// the search tree is allocation-heavy, and the GC re-scans every
		// retained mapping on each cycle, so caching the plentiful cheap
		// enumerations costs more in collector work than the hits save
		// (measured; see the match-cache notes in DESIGN.md). err != nil
		// means a deadline truncated the enumeration: the list is usable
		// for this node but must not be served as complete later.
		w.sh.cache.put(cacheKey, cands)
	}
	return cands
}

// primPlan is one library primitive compiled once per solve into the
// dense form the matching step reads: its frozen representation graph,
// each representation edge as a pair of pattern dense indices (in the
// pattern's edge-id order, which is Rep.Edges() order), each edge's route
// as pattern dense indices (nil when the primitive has no route for it)
// and its hop count (1 without a route, as MappedRoute callers assume).
type primPlan struct {
	prim   *primitives.Primitive
	pat    *graph.Frozen
	edges  [][2]int32
	routes [][]int32
	hops   []float64
	links  float64 // link-mode match cost: the implementation link count
}

// compilePlan builds a primitive's plan. It fails when a route passes
// through a vertex the representation graph lacks, which Validate does not
// rule out (it checks routes against the implementation graph).
func compilePlan(prim *primitives.Primitive) (primPlan, error) {
	pat := prim.Rep.Freeze()
	ids := pat.IDs()
	ne := pat.EdgeCount()
	pl := primPlan{
		prim:   prim,
		pat:    pat,
		edges:  make([][2]int32, ne),
		routes: make([][]int32, ne),
		hops:   make([]float64, ne),
		links:  float64(prim.ImplLinkCount()),
	}
	for e := 0; e < ne; e++ {
		from, to := pat.EdgeEndpoints(e)
		pl.edges[e] = [2]int32{from, to}
		pl.hops[e] = 1
		route, ok := prim.Routes[[2]graph.NodeID{ids[from], ids[to]}]
		if !ok {
			continue
		}
		pl.routes[e] = make([]int32, len(route))
		for i, v := range route {
			vi, ok := pat.IndexOf(v)
			if !ok {
				return primPlan{}, fmt.Errorf("decompose: %s route %v leaves the representation graph", prim.Name, route)
			}
			pl.routes[e][i] = int32(vi)
		}
		if len(route) > 1 {
			pl.hops[e] = float64(len(route) - 1)
		}
	}
	return pl, nil
}

// fits reports whether the primitive can still match a remaining graph of
// live edges over nodes vertices.
func (pl *primPlan) fits(live, nodes int) bool {
	return live >= len(pl.edges) && nodes >= pl.pat.NodeCount()
}

// vertexCenters returns, per frozen ACG vertex, its core center and
// whether the placement has it: the dense form of linkLength's placement
// lookups. Both are nil outside energy mode or without a placement.
func vertexCenters(p *Problem, facg *graph.Frozen) ([]floorplan.Point, []bool) {
	if p.Options.Mode != CostEnergy || p.Placement == nil {
		return nil, nil
	}
	centers := make([]floorplan.Point, facg.NodeCount())
	placed := make([]bool, facg.NodeCount())
	for i, id := range facg.IDs() {
		if p.Placement.Has(id) {
			centers[i], placed[i] = p.Placement.Center(id), true
		}
	}
	return centers, placed
}

// linkLength is coster.linkLength over ACG dense indices.
func (sh *shared) linkLength(a, b int32) float64 {
	if sh.centers == nil || !sh.placed[a] || !sh.placed[b] {
		return 1
	}
	ca, cb := sh.centers[a], sh.centers[b]
	return math.Abs(ca.X-cb.X) + math.Abs(ca.Y-cb.Y)
}

// matchScratch is a worker's reusable working memory for scoring and
// selecting the raw mappings of one enumerate call.
type matchScratch struct {
	// covers holds len(plan.edges) ascending covered edge ids per mapping;
	// coverEdge[i] is the plan edge index behind covers[i].
	covers    []int32
	coverEdge []int32
	costs     []float64 // per mapping
	hashes    []uint64  // per mapping: XOR of its covered edges' signature terms
	lengths   []float64 // route link lengths of one edge
	slots     []int32   // open-addressing table of groups indices, -1 empty
	groups    []coverGroup
}

// coverGroup is one distinct covered edge set: its hash and the first of
// its cheapest mappings.
type coverGroup struct {
	hash uint64
	best int32
}

func (sc *matchScratch) cover(r, ne int) []int32 { return sc.covers[r*ne : (r+1)*ne] }

// scoreMappings fills the worker's scratch with each mapping's covered
// edge ids, insertion-sorted, and its cost: the implementation link count
// in link mode, Equation 5 in energy mode. It is the dense form of
// Match.CoveredEdges and coster.matchCost and sums in the same order, so
// the costs are bit-identical to theirs.
func (w *worker) scoreMappings(plan *primPlan, flat []int32) {
	sh, sc := w.sh, &w.scratch
	pn, ne := plan.pat.NodeCount(), len(plan.edges)
	n := len(flat) / pn
	sc.covers = resize(sc.covers, n*ne)
	sc.coverEdge = resize(sc.coverEdge, n*ne)
	sc.costs = resize(sc.costs, n)
	sc.hashes = resize(sc.hashes, n)
	energyMode := sh.p.Options.Mode == CostEnergy
	for r := 0; r < n; r++ {
		core1 := flat[r*pn : (r+1)*pn]
		ids, edge := sc.cover(r, ne), sc.coverEdge[r*ne:(r+1)*ne]
		cost := plan.links
		if energyMode {
			cost = 0
		}
		var hash uint64
		for k, pe := range plan.edges {
			e, ok := sh.facg.EdgeIndexBetween(int(core1[pe[0]]), int(core1[pe[1]]))
			if !ok {
				// A match can only cover edges of the graph it was found in.
				panic(fmt.Sprintf("decompose: covered edge %d->%d not in ACG",
					sh.facg.IDOf(int(core1[pe[0]])), sh.facg.IDOf(int(core1[pe[1]]))))
			}
			if route := plan.routes[k]; energyMode && route != nil {
				lengths := sc.lengths[:0]
				for i := 0; i+1 < len(route); i++ {
					lengths = append(lengths, sh.linkLength(core1[route[i]], core1[route[i+1]]))
				}
				sc.lengths = lengths
				cost += sh.p.Energy.TransferEnergy(sh.facg.Volume(e), lengths)
			}
			hash ^= sh.edgeSigs[e].a
			j := k
			for ; j > 0 && ids[j-1] > int32(e); j-- {
				ids[j], edge[j] = ids[j-1], edge[j-1]
			}
			ids[j], edge[j] = int32(e), int32(k)
		}
		sc.costs[r], sc.hashes[r] = cost, hash
	}
}

// selectCovers dedups n scored mappings by covered edge set and returns
// one group per set, ordered by cost and capped at limit (<= 0 means no
// cap). Each set keeps its first cheapest mapping, and equal-cost sets
// keep the order of their first mappings — exactly a stable cost sort
// over first-occurrence order. Sets are found through an open-addressing
// table keyed by the cover hash and confirmed by comparing the sorted
// ids, so a hash collision never merges two sets. The slice is scratch,
// valid until the next call.
func (sc *matchScratch) selectCovers(n, ne, limit int) []coverGroup {
	size := 1
	for size < 2*n {
		size <<= 1
	}
	sc.slots = resize(sc.slots, size)
	for i := range sc.slots {
		sc.slots[i] = -1
	}
	sc.groups = sc.groups[:0]
	for r := 0; r < n; r++ {
		h, key := sc.hashes[r], sc.cover(r, ne)
		i := int(h & uint64(size-1))
		for ; sc.slots[i] >= 0; i = (i + 1) & (size - 1) {
			g := &sc.groups[sc.slots[i]]
			if g.hash == h && slices.Equal(sc.cover(int(g.best), ne), key) {
				if sc.costs[r] < sc.costs[g.best] {
					g.best = int32(r)
				}
				break
			}
		}
		if sc.slots[i] < 0 {
			sc.slots[i] = int32(len(sc.groups))
			sc.groups = append(sc.groups, coverGroup{hash: h, best: int32(r)})
		}
	}
	slices.SortStableFunc(sc.groups, func(a, b coverGroup) int {
		return cmp.Compare(sc.costs[a.best], sc.costs[b.best])
	})
	if limit > 0 && len(sc.groups) > limit {
		return sc.groups[:limit]
	}
	return sc.groups
}

// resize returns s with length n, reallocating only when its capacity is
// short. Contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// graphSig is a 128-bit Zobrist-style signature of a graph's directed edge
// set: the XOR of a pseudorandom hash per edge. Because XOR is its own
// inverse, the signature of a child node's remaining graph is derived from
// the parent's in O(covered edges) — no O(E) canonical serialization per
// tree node. All remaining graphs within one solve share the ACG's vertex
// set, so the edge set identifies the graph; 128 bits make an accidental
// collision (which would silently corrupt the search) vanishingly
// unlikely even across millions of distinct tree nodes.
type graphSig struct{ a, b uint64 }

// without returns the signature with the given edge ids removed (or,
// symmetrically, added — XOR toggles); table is the graph's edgeSigTable.
func (s graphSig) without(ids []int32, table []graphSig) graphSig {
	for _, e := range ids {
		s.a ^= table[e].a
		s.b ^= table[e].b
	}
	return s
}

// edgeSigTable returns each frozen edge's signature term, indexed by edge
// id: edgeSig of its (From, To) NodeIDs, so signatures built from the
// table equal graphSigOf's.
func edgeSigTable(f *graph.Frozen) []graphSig {
	ids := f.IDs()
	table := make([]graphSig, f.EdgeCount())
	for e := range table {
		from, to := f.EdgeEndpoints(e)
		table[e] = edgeSig(ids[from], ids[to])
	}
	return table
}

// graphSigOf hashes a full edge set, used by tests and map-graph callers.
func graphSigOf(g *graph.Graph) graphSig {
	var s graphSig
	for _, e := range g.Edges() {
		h := edgeSig(e.From, e.To)
		s.a ^= h.a
		s.b ^= h.b
	}
	return s
}

// graphSigOfFrozen hashes a frozen graph's edge set straight from the CSR
// arrays, used once per solve for the root. Identical to graphSigOf on the
// thawed graph.
func graphSigOfFrozen(f *graph.Frozen) graphSig {
	var s graphSig
	ids := f.IDs()
	for e := 0; e < f.EdgeCount(); e++ {
		from, to := f.EdgeEndpoints(e)
		h := edgeSig(ids[from], ids[to])
		s.a ^= h.a
		s.b ^= h.b
	}
	return s
}

func edgeSig(u, v graph.NodeID) graphSig {
	x := uint64(uint32(u))<<32 | uint64(uint32(v))
	return graphSig{splitmix64(x ^ 0x9e3779b97f4a7c15), splitmix64(x ^ 0xc2b2ae3d27d4eb4f)}
}

// splitmix64 is the finalizer of the SplitMix64 generator, a strong
// deterministic 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// MatchCache is a shareable handle on the solver's memoized candidate
// cache. Options.MatchCache points consecutive solves at one instance so
// a frontier sweep's adjacent ε-points reuse each other's enumerations —
// the cache key (primitive, remaining-graph signature) and the cached
// candidate lists are independent of MaxLatency and InitialBound, the
// only coordinates the sweep varies. Sharing solves must run
// sequentially when they differ in any other answer-shaping option.
type MatchCache struct {
	inner *matchCache
}

// NewMatchCache returns an empty shareable candidate cache; maxEntries
// <= 0 applies the default cap.
func NewMatchCache(maxEntries int) *MatchCache {
	return &MatchCache{inner: newMatchCache(maxEntries)}
}

// Counters reports the cumulative hit/miss counts across every solve
// that shared this cache.
func (c *MatchCache) Counters() (hits, misses uint64) {
	return c.inner.hits.Load(), c.inner.misses.Load()
}

// matchKey identifies one enumerate query: which primitive against which
// remaining graph.
type matchKey struct {
	prim int
	sig  graphSig
}

// matchCache memoizes finished candidate lists across the DFS workers: a
// hit skips the isomorphism search *and* the match costing pipeline
// behind it, and the retained values are at most MatchLimit candidates
// each. Entries beyond the cap are computed and
// returned but not retained. Safe for concurrent use.
type matchCache struct {
	mu      sync.RWMutex
	entries map[matchKey][]candidate
	max     int
	hits    atomic.Uint64
	misses  atomic.Uint64
}

// DefaultCacheEntries bounds a match cache built with a zero (or
// negative) entry cap. Entries are small (at most MatchLimit candidates
// over graphs of tens of vertices), so tens of thousands of them stay in
// the tens of megabytes.
const DefaultCacheEntries = 1 << 15

func newMatchCache(maxEntries int) *matchCache {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	return &matchCache{entries: make(map[matchKey][]candidate), max: maxEntries}
}

// get returns the cached candidate list. The caller must treat the slice
// and the mappings inside as read-only (candidate values are copied out on
// range, so setting Depth on the copy is fine).
func (c *matchCache) get(key matchKey) ([]candidate, bool) {
	c.mu.RLock()
	cands, ok := c.entries[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return cands, true
	}
	c.misses.Add(1)
	return nil, false
}

func (c *matchCache) put(key matchKey, cands []candidate) {
	c.mu.Lock()
	if _, dup := c.entries[key]; !dup && len(c.entries) < c.max {
		c.entries[key] = cands
	}
	c.mu.Unlock()
}

// rankOf builds the canonical expansion rank of a candidate: library
// position (2 bytes) then its ascending covered edge ids (4 bytes each,
// big-endian). Frozen edge ids ascend in (From, To) order, so ranks of one
// primitive order exactly like their sorted covered NodeID pairs.
// Disjoint matches always differ in covered edges, so ranks are unique
// within a decomposition.
func rankOf(primIdx int, ids []int32) string {
	b := make([]byte, 2, 2+4*len(ids))
	b[0], b[1] = byte(primIdx>>8), byte(primIdx)
	for _, e := range ids {
		b = binary.BigEndian.AppendUint32(b, uint32(e))
	}
	return string(b)
}
