package routing

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/topology"
)

// maxCompiledVCs bounds VCAssignment.NumVCs for compiled tables: per-hop
// virtual channels are stored as uint8, so plans can address at most 256
// lanes. Real assignments use a handful.
const maxCompiledVCs = 256

// CompiledTable is the immutable runtime form of a routing table: for
// each compiled (src, dst) pair, the full route, the per-hop virtual
// channel and the per-hop output-port slot, flattened into shared arrays
// computed once per table. The map-walking Table answers "what is the
// next hop" one hop at a time; the compiled form answers "what is the
// complete plan" with three slice views and no allocation — the shape
// the simulator's injection path, the sweep harness and the service's
// simulate path all consume.
//
// Two index layouts share the plan arrays. The dense layout spans every
// ordered pair (start has n²+1 entries, O(n²) memory — 10⁸ spans at 10k
// routers); CompileTable produces it and it remains the right shape for
// all-pairs (uniform) demand on small and mid-size networks. The sparse
// layout (CompileTablePairs) indexes only a demanded PairSet through a
// CSR-style per-source row of destination indices, so a permutation on
// 10k routers compiles 10⁴ plans instead of 10⁸. Pairs outside the
// demand resolve through a size-bounded, mutex-sharded lazy compile
// cache (PlanByIndexLazy) against the router the table was compiled
// from.
//
// Output-port slots follow the simulator's port convention: slot k of a
// router is its k-th smallest neighbor in the frozen CSR adjacency, and
// slot degree(router) is the local injection/ejection port. Plans are
// resolved against the CompiledTable's own frozen view, which the
// simulator adopts, so the slot numbering can never diverge.
type CompiledTable struct {
	frz    *graph.Frozen
	numVCs int

	// Dense layout: start[s*n+d] .. start[s*n+d+1] delimit pair (s, d)
	// in the flat plan arrays; an empty span marks an invalid pair
	// (s == d). Sparse layout: srcOff/dsts form a CSR row per source —
	// dsts[srcOff[s]:srcOff[s+1]] are s's demanded destinations in
	// ascending index order — and start is aligned to positions in dsts
	// (start[p] .. start[p+1] delimit the plan of the pair at dsts[p]).
	// srcOff == nil selects the dense layout.
	start  []int32
	srcOff []int32
	dsts   []int32

	// nodes, vcs and outSlot hold the plans position by position: for a
	// plan of length L, position i < L-1 carries the VC occupied at
	// route[i] and the output slot toward route[i+1]; the final position
	// carries VC 0 and the destination's local ejection slot.
	nodes   []graph.NodeID
	vcs     []uint8
	outSlot []int32

	// lazy caches plans compiled on demand for pairs outside the sparse
	// index; nil on dense tables (they cover everything).
	lazy *lazyPlans

	fpOnce sync.Once
	fp     [32]byte
}

// CompileTable flattens a routing table and its deadlock-free VC
// assignment over the architecture into a dense all-pairs CompiledTable.
// The table is read once into a next-hop matrix over the architecture's
// frozen graph and every ordered pair is walked through it, so every hop
// is checked against the frozen adjacency (consumers can trust plans
// without re-validating links) and the per-hop VCs are the dateline
// descents VCAssignment.VCForHop reports — the compiled plans are
// definitionally identical to per-packet resolution.
func CompileTable(table Table, arch *topology.Architecture, vc VCAssignment) (*CompiledTable, error) {
	if table == nil || arch == nil {
		return nil, fmt.Errorf("routing: compile needs a table and an architecture")
	}
	return compileAllPairs(table, arch, vc)
}

// CompileTablePairs compiles exactly the demanded pairs of a routing
// source into a sparse CompiledTable, attaching the router as the lazy
// resolver for every pair outside the demand. A nil or all-pairs demand
// degenerates to the dense layout of CompileTable. The router is any
// route source — the map Table, or a SparseRouter for architectures too
// large to materialize a table at all.
func CompileTablePairs(router Router, arch *topology.Architecture, vc VCAssignment, pairs *PairSet) (*CompiledTable, error) {
	if router == nil || arch == nil {
		return nil, fmt.Errorf("routing: compile needs a route source and an architecture")
	}
	if pairs == nil || pairs.All() {
		return compileAllPairs(router, arch, vc)
	}
	frz := arch.Graph().Freeze()
	n := frz.NodeCount()
	if pairs.N() != n {
		return nil, fmt.Errorf("routing: demand set over %d nodes does not match architecture with %d", pairs.N(), n)
	}
	if vc.NumVCs > maxCompiledVCs {
		return nil, fmt.Errorf("routing: %d virtual channels exceed the compiled plan limit %d", vc.NumVCs, maxCompiledVCs)
	}
	sorted := pairs.Sorted()
	ct := &CompiledTable{
		frz:    frz,
		numVCs: vc.NumVCs,
		srcOff: make([]int32, n+1),
		dsts:   make([]int32, 0, len(sorted)),
		start:  make([]int32, 0, len(sorted)+1),
	}
	labels := compileLabels(vc, frz)
	w := &routeWalker{frz: frz, router: router}
	ct.start = append(ct.start, 0)
	for _, pr := range sorted {
		s, d := int(pr[0]), int(pr[1])
		if err := ct.appendPlan(w, labels, vc, s, d, false); err != nil {
			return nil, err
		}
		ct.dsts = append(ct.dsts, pr[1])
		ct.start = append(ct.start, int32(len(ct.nodes)))
		ct.srcOff[s+1]++
	}
	for s := 0; s < n; s++ {
		ct.srcOff[s+1] += ct.srcOff[s]
	}
	ct.lazy = newLazyPlans(router, vc, labels)
	return ct, nil
}

// compileAllPairs builds the dense layout over every ordered pair. One
// walk per pair collects each source's routes as edge ids, back to back,
// and sizes every plan span; the plan arrays are then allocated once at
// their final size and filled in a sequential pass over the collected
// edges.
func compileAllPairs(router Router, arch *topology.Architecture, vc VCAssignment) (*CompiledTable, error) {
	frz := arch.Graph().Freeze()
	n := frz.NodeCount()
	if vc.NumVCs > maxCompiledVCs {
		return nil, fmt.Errorf("routing: %d virtual channels exceed the compiled plan limit %d", vc.NumVCs, maxCompiledVCs)
	}
	ct := &CompiledTable{
		frz:    frz,
		numVCs: vc.NumVCs,
		start:  make([]int32, n*n+1),
	}
	w := newAllPairsWalker(router, frz)
	ids := frz.IDs()
	hops := make([][]int32, n) // hops[s]: the edges of s's routes, destination order
	positions := 0
	for si := range ids {
		if si > 0 { // rows are similar in length: size each from the last
			hops[si] = make([]int32, 0, len(hops[si-1])+len(hops[si-1])/8)
		}
		for di := range ids {
			ct.start[si*n+di] = int32(positions)
			if si == di {
				continue
			}
			edges, err := w.walk(si, di)
			if err != nil {
				return nil, fmt.Errorf("routing: compile %d->%d: %w", ids[si], ids[di], err)
			}
			hops[si] = append(hops[si], edges...)
			positions += len(edges) + 1
		}
	}
	ct.start[n*n] = int32(positions)
	ct.nodes = make([]graph.NodeID, positions)
	ct.vcs = make([]uint8, positions)
	ct.outSlot = make([]int32, positions)
	labels := compileLabels(vc, frz)
	for si := range ids {
		row := hops[si]
		for di := range ids {
			lo, hi := int(ct.start[si*n+di]), int(ct.start[si*n+di+1])
			if lo == hi {
				continue
			}
			if err := ct.writePlan(lo, si, di, row[:hi-lo-1], labels, vc, false); err != nil {
				return nil, err
			}
			row = row[hi-lo-1:]
		}
		hops[si] = nil
	}
	return ct, nil
}

// compileLabels translates the assignment's dateline labels onto the
// compile graph's edge ids (labels[e] is the label of edge e), or returns
// nil when the assignment does not use labels. When the assignment was
// made over the same architecture this is the identity; it differs only
// for a table compiled against another topology (a fault-masked one).
func compileLabels(vc VCAssignment, frz *graph.Frozen) []int32 {
	if vc.fn != nil || vc.singleVC {
		return nil
	}
	ids := frz.IDs()
	labels := make([]int32, frz.EdgeCount())
	for e := range labels {
		from, to := frz.EdgeEndpoints(e)
		labels[e] = vc.label(ids[from], ids[to])
	}
	return labels
}

// appendPlan walks pair (si, di) and appends its plan to the arrays.
func (ct *CompiledTable) appendPlan(w *routeWalker, labels []int32, vc VCAssignment, si, di int, clampVC bool) error {
	edges, err := w.walk(si, di)
	if err != nil {
		return fmt.Errorf("routing: compile %d->%d: %w", ct.frz.IDOf(si), ct.frz.IDOf(di), err)
	}
	lo, k := len(ct.nodes), len(edges)+1
	ct.nodes = slices.Grow(ct.nodes, k)[:lo+k]
	ct.vcs = slices.Grow(ct.vcs, k)[:lo+k]
	ct.outSlot = slices.Grow(ct.outSlot, k)[:lo+k]
	return ct.writePlan(lo, si, di, edges, labels, vc, clampVC)
}

// writePlan fills the plan positions from lo on for the route of pair
// (si, di), given as edge ids the walk has already checked against the
// frozen adjacency: a hop's output slot is its edge id's offset in the
// CSR row, its dateline VC the running count of label descents, and
// the final position carries VC 0 and the destination's ejection slot.
// With clampVC set (the lazy path), out-of-range VCs are clamped into
// the table's lane range instead of failing: a lazily resolved route may
// descend more often than any ahead-of-time route, and the top lane is
// always a safe escape.
func (ct *CompiledTable) writePlan(lo, si, di int, edges, labels []int32, vc VCAssignment, clampVC bool) error {
	frz := ct.frz
	ids := frz.IDs()
	last := si
	for i, e := range edges {
		from, to := frz.EdgeEndpoints(int(e))
		ct.nodes[lo+i] = ids[from]
		ct.outSlot[lo+i] = e - int32(frz.OutEdgeStart(int(from)))
		last = int(to)
	}
	end := lo + len(edges)
	ct.nodes[end] = ids[last]
	ct.outSlot[end] = int32(frz.OutDegree(last)) // local ejection slot
	ct.vcs[end] = 0
	route := ct.nodes[lo : end+1 : end+1]
	maxVC := max(vc.NumVCs, 1)
	descents := 0
	for i, e := range edges {
		hopVC := 0
		switch {
		case vc.fn != nil:
			hopVC = vc.fn(route, i)
		case labels != nil:
			if i > 0 && labels[e] <= labels[edges[i-1]] {
				descents++
			}
			hopVC = descents
		}
		if clampVC && hopVC >= maxVC {
			hopVC = maxVC - 1
		}
		if hopVC < 0 || hopVC >= maxVC {
			return fmt.Errorf("routing: compile %d->%d: hop %d VC %d outside [0,%d)",
				ids[si], ids[di], i, hopVC, maxVC)
		}
		ct.vcs[lo+i] = uint8(hopVC)
	}
	return nil
}

// csrSlotOf returns the position of v in the ascending CSR neighbor row —
// the simulator's output-port slot convention.
func csrSlotOf(nbr []int32, v int32) (int32, bool) {
	lo, hi := 0, len(nbr)
	for lo < hi {
		mid := (lo + hi) / 2
		if nbr[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(nbr) && nbr[lo] == v {
		return int32(lo), true
	}
	return 0, false
}

// Fingerprint returns a content hash of the compiled plans: two tables
// with equal fingerprints route identically over identical topologies
// *and cover the same demand*, so simulator state built against one is
// interchangeable with state built against the other (the keying
// contract of noc's network pool). The hash covers the frozen topology's
// canonical hash, the VC count, the layout (dense, or the sparse
// srcOff/dsts pair index), and every plan position — start spans, vcs
// and outSlot; route node ids are determined by the topology plus
// outSlot, so they need no separate coverage. Computed lazily once and
// memoized.
//
// Layout version 2: sparse pair index added, vcs narrowed to one byte
// per position. Version-1 fingerprints (dense, 4-byte vcs) are not
// comparable.
func (ct *CompiledTable) Fingerprint() [32]byte {
	ct.fpOnce.Do(func() {
		h := sha256.New()
		h.Write([]byte{2}) // fingerprint layout version
		sum := ct.frz.CanonicalHash()
		h.Write(sum[:])
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(ct.numVCs))
		h.Write(buf[:])
		if ct.srcOff == nil {
			h.Write([]byte{1}) // dense all-pairs layout
		} else {
			h.Write([]byte{0})
		}
		// Stream the index and plan arrays through a chunk buffer: one
		// Write per ~16k entries rather than one per entry.
		chunk := make([]byte, 0, 64<<10)
		flush := func(force bool) {
			if len(chunk) > 0 && (force || len(chunk)+8 > cap(chunk)) {
				h.Write(chunk)
				chunk = chunk[:0]
			}
		}
		writeInt32s := func(vs []int32) {
			binary.LittleEndian.PutUint64(buf[:], uint64(len(vs)))
			h.Write(buf[:])
			for _, v := range vs {
				chunk = binary.LittleEndian.AppendUint32(chunk, uint32(v))
				flush(false)
			}
			flush(true)
		}
		writeInt32s(ct.srcOff)
		writeInt32s(ct.dsts)
		writeInt32s(ct.start)
		for _, v := range ct.vcs {
			chunk = append(chunk, v)
			flush(false)
		}
		flush(true)
		writeInt32s(ct.outSlot)
		copy(ct.fp[:], h.Sum(nil))
	})
	return ct.fp
}

// Frozen returns the CSR view the plans were compiled against. Consumers
// wiring state by dense node index (the simulator) adopt this view so
// plan slots and their own port numbering agree by construction.
func (ct *CompiledTable) Frozen() *graph.Frozen { return ct.frz }

// NumVCs returns the virtual channel count the compiled plans require.
func (ct *CompiledTable) NumVCs() int { return ct.numVCs }

// NodeCount returns the number of nodes the table was compiled for.
func (ct *CompiledTable) NodeCount() int { return ct.frz.NodeCount() }

// AllPairs reports whether the table uses the dense all-pairs layout.
func (ct *CompiledTable) AllPairs() bool { return ct.srcOff == nil }

// PairCount returns the number of ahead-of-time compiled (src, dst)
// pairs: n·(n-1) for the dense layout, the demand size for the sparse
// one. Lazily cached plans are not counted.
func (ct *CompiledTable) PairCount() int {
	if ct.srcOff == nil {
		n := ct.frz.NodeCount()
		return n * (n - 1)
	}
	return len(ct.dsts)
}

// MemoryFootprint returns the resident bytes of the table's index and
// plan arrays, including currently cached lazy plans — the quantity the
// sparse layout exists to bound (a dense 10k-router table is ~12 GB; a
// permutation-demand sparse one is a few MB).
func (ct *CompiledTable) MemoryFootprint() int64 {
	sz := int64(len(ct.start))*4 + int64(len(ct.srcOff))*4 + int64(len(ct.dsts))*4
	sz += int64(len(ct.nodes))*8 + int64(len(ct.vcs)) + int64(len(ct.outSlot))*4
	if ct.lazy != nil {
		sz += ct.lazy.footprint()
	}
	return sz
}

// PlanByIndex returns the route plan between dense node indices as three
// aligned read-only views (route node ids, per-position VCs, per-position
// output slots). ok is false for s == d, out-of-range indices, and — on
// sparse tables — pairs outside the compiled demand (use PlanByIndexLazy
// to resolve those). Callers must not mutate the views.
func (ct *CompiledTable) PlanByIndex(s, d int) (route []graph.NodeID, vcs []uint8, outSlot []int32, ok bool) {
	n := ct.frz.NodeCount()
	if s < 0 || s >= n || d < 0 || d >= n || s == d {
		return nil, nil, nil, false
	}
	var lo, hi int32
	if ct.srcOff == nil {
		lo, hi = ct.start[s*n+d], ct.start[s*n+d+1]
	} else {
		row := ct.dsts[ct.srcOff[s]:ct.srcOff[s+1]]
		p, found := csrSlotOf(row, int32(d))
		if !found {
			return nil, nil, nil, false
		}
		pos := ct.srcOff[s] + p
		lo, hi = ct.start[pos], ct.start[pos+1]
	}
	if lo == hi {
		return nil, nil, nil, false
	}
	return ct.nodes[lo:hi:hi], ct.vcs[lo:hi:hi], ct.outSlot[lo:hi:hi], true
}

// PlanByIndexLazy is PlanByIndex with a fallback: a pair missing from a
// sparse table's compiled demand is resolved through the table's router,
// compiled, cached in a bounded mutex-sharded cache, and returned with
// miss set. Safe for concurrent use. ok is false only for genuinely
// unplannable pairs (s == d, out of range, unroutable, or a dense-table
// miss, which has no router to fall back to).
func (ct *CompiledTable) PlanByIndexLazy(s, d int) (route []graph.NodeID, vcs []uint8, outSlot []int32, miss, ok bool) {
	route, vcs, outSlot, ok = ct.PlanByIndex(s, d)
	if ok {
		return route, vcs, outSlot, false, true
	}
	n := ct.frz.NodeCount()
	if ct.lazy == nil || s < 0 || s >= n || d < 0 || d >= n || s == d {
		return nil, nil, nil, false, false
	}
	route, vcs, outSlot, ok = ct.lazy.plan(ct, s, d)
	return route, vcs, outSlot, true, ok
}

// Plan is PlanByIndex keyed by node id.
func (ct *CompiledTable) Plan(src, dst graph.NodeID) (route []graph.NodeID, vcs []uint8, outSlot []int32, ok bool) {
	s, sok := ct.frz.IndexOf(src)
	d, dok := ct.frz.IndexOf(dst)
	if !sok || !dok {
		return nil, nil, nil, false
	}
	return ct.PlanByIndex(s, d)
}

// LazyCompiles returns how many plans the lazy fallback has compiled
// over the table's lifetime (0 for dense tables). Cache hits do not
// recompile.
func (ct *CompiledTable) LazyCompiles() int64 {
	if ct.lazy == nil {
		return 0
	}
	return ct.lazy.compiles.Load()
}

// LazyCached returns the number of plans currently resident in the lazy
// cache.
func (ct *CompiledTable) LazyCached() int {
	if ct.lazy == nil {
		return 0
	}
	return ct.lazy.cached()
}

// SetLazyBound overrides the lazy cache's total plan bound (default
// DefaultLazyPlanBound). Must be called before the table is shared
// across goroutines; it exists for tests and memory-constrained
// embedders. No-op on dense tables.
func (ct *CompiledTable) SetLazyBound(bound int) {
	if ct.lazy != nil && bound > 0 {
		ct.lazy.setBound(bound)
	}
}

// DefaultLazyPlanBound is the default total number of lazily compiled
// plans a sparse table retains across its cache shards. At a typical ~6
// hop plan this bounds the cache near 10 MB — small next to the dense
// table it replaces, large enough that a hotspot pattern's uniform
// escape tail mostly hits.
const DefaultLazyPlanBound = 65536

// lazyShardCount is the number of mutex shards in the lazy plan cache;
// a small power of two keeps contention negligible at simulator
// parallelism without bloating empty tables.
const lazyShardCount = 16

type lazyPlan struct {
	nodes   []graph.NodeID
	vcs     []uint8
	outSlot []int32
}

type lazyShard struct {
	mu    sync.Mutex
	plans map[int64]lazyPlan
	fifo  []int64
	bytes int64
}

// lazyPlans is the bounded per-pair compile cache behind sparse tables.
// Each shard owns a FIFO-evicted map slice of the key space; compilation
// happens under the shard lock, so concurrent injectors of the same pair
// compile it once.
type lazyPlans struct {
	router   Router
	vc       VCAssignment
	labels   []int32
	perShard atomic.Int64
	compiles atomic.Int64
	shards   [lazyShardCount]lazyShard
}

func newLazyPlans(router Router, vc VCAssignment, labels []int32) *lazyPlans {
	lp := &lazyPlans{router: router, vc: vc, labels: labels}
	lp.setBound(DefaultLazyPlanBound)
	return lp
}

func (lp *lazyPlans) setBound(total int) {
	per := total / lazyShardCount
	if per < 1 {
		per = 1
	}
	lp.perShard.Store(int64(per))
}

func (lp *lazyPlans) cached() int {
	total := 0
	for i := range lp.shards {
		sh := &lp.shards[i]
		sh.mu.Lock()
		total += len(sh.plans)
		sh.mu.Unlock()
	}
	return total
}

func (lp *lazyPlans) footprint() int64 {
	var total int64
	for i := range lp.shards {
		sh := &lp.shards[i]
		sh.mu.Lock()
		total += sh.bytes
		sh.mu.Unlock()
	}
	return total
}

func (lp *lazyPlans) plan(ct *CompiledTable, s, d int) ([]graph.NodeID, []uint8, []int32, bool) {
	key := pairKey(s, d)
	sh := &lp.shards[(s*31+d)&(lazyShardCount-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if p, ok := sh.plans[key]; ok {
		return p.nodes, p.vcs, p.outSlot, true
	}
	// Compile into a scratch table so appendPlan's validation and VC
	// clamping apply verbatim; the three freshly cut slices then live in
	// the cache, immutable.
	scratch := &CompiledTable{frz: ct.frz, numVCs: ct.numVCs}
	w := &routeWalker{frz: ct.frz, router: lp.router}
	if err := scratch.appendPlan(w, lp.labels, lp.vc, s, d, true); err != nil {
		return nil, nil, nil, false
	}
	lp.compiles.Add(1)
	p := lazyPlan{nodes: scratch.nodes, vcs: scratch.vcs, outSlot: scratch.outSlot}
	if sh.plans == nil {
		sh.plans = make(map[int64]lazyPlan)
	}
	per := int(lp.perShard.Load())
	for len(sh.plans) >= per && len(sh.fifo) > 0 {
		old := sh.fifo[0]
		sh.fifo = sh.fifo[1:]
		if q, ok := sh.plans[old]; ok {
			sh.bytes -= planBytes(q)
			delete(sh.plans, old)
		}
	}
	sh.plans[key] = p
	sh.fifo = append(sh.fifo, key)
	sh.bytes += planBytes(p)
	return p.nodes, p.vcs, p.outSlot, true
}

func planBytes(p lazyPlan) int64 {
	return int64(len(p.nodes))*8 + int64(len(p.vcs)) + int64(len(p.outSlot))*4
}
