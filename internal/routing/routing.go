// Package routing builds deterministic routing tables for synthesized and
// mesh architectures, implementing Section 4.5 of the paper: the optimal
// gossip/broadcast schedules of the matched primitives induce routes
// ("each vertex knows precisely how to send a message to the vertices it
// is not directly connected to"), remaining pairs are completed with
// shortest paths, deadlock cycles are detected on the channel dependency
// graph, and virtual channels are assigned to eliminate them.
package routing

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/topology"
)

// ErrNoRoute is the sentinel every unroutable-pair error matches via
// errors.Is: a disconnected architecture, a table with no entry for a
// pair, or a compile over a fault-masked topology with unreachable
// (src, dst) pairs. Callers working over degraded topologies (the fault
// injection layer) branch on this instead of string-matching.
var ErrNoRoute = errors.New("routing: no route")

// UnreachableError is the typed form of ErrNoRoute carrying the pair the
// routing layer could not connect. It matches ErrNoRoute via errors.Is.
type UnreachableError struct {
	Src, Dst graph.NodeID
}

func (e *UnreachableError) Error() string {
	return fmt.Sprintf("routing: no route from %d to %d", e.Src, e.Dst)
}

// Is makes errors.Is(err, ErrNoRoute) succeed for UnreachableError.
func (e *UnreachableError) Is(target error) bool { return target == ErrNoRoute }

// Router is any deterministic route source: given an ordered node pair
// it yields the full vertex path. The map-backed Table satisfies it, as
// do the demand-driven sources (SparseRouter, RouteSet) that never
// materialize an O(n²) table. Implementations must be safe for
// concurrent Route calls and must return the same path for the same
// pair every time — compilation, VC assignment and the lazy plan cache
// all assume route determinism.
type Router interface {
	Route(src, dst graph.NodeID) ([]graph.NodeID, error)
}

// Table is a deterministic distributed routing table: for every node, the
// next hop toward every destination. Table[n][d] is undefined for n == d.
type Table map[graph.NodeID]map[graph.NodeID]graph.NodeID

// NextHop returns the next hop from n toward dst.
func (t Table) NextHop(n, dst graph.NodeID) (graph.NodeID, bool) {
	row, ok := t[n]
	if !ok {
		return 0, false
	}
	nh, ok := row[dst]
	return nh, ok
}

// Route follows the table from src to dst, returning the vertex path. It
// fails if the table is incomplete or loops (a hop count above the node
// count is treated as a loop).
func (t Table) Route(src, dst graph.NodeID) ([]graph.NodeID, error) {
	if src == dst {
		return []graph.NodeID{src}, nil
	}
	path := []graph.NodeID{src}
	cur := src
	for cur != dst {
		nh, ok := t.NextHop(cur, dst)
		if !ok {
			return nil, fmt.Errorf("routing: no entry at node %d for destination %d: %w",
				cur, dst, &UnreachableError{Src: src, Dst: dst})
		}
		path = append(path, nh)
		cur = nh
		if len(path) > len(t)+1 {
			return nil, fmt.Errorf("routing: loop detected from %d to %d: %v", src, dst, path)
		}
	}
	return path, nil
}

// set installs one hop, detecting conflicting previous entries.
func (t Table) set(n, dst, next graph.NodeID) error {
	row, ok := t[n]
	if !ok {
		row = make(map[graph.NodeID]graph.NodeID)
		t[n] = row
	}
	if old, ok := row[dst]; ok && old != next {
		return fmt.Errorf("routing: conflicting next hop at node %d for %d: %d vs %d", n, dst, old, next)
	}
	row[dst] = next
	return nil
}

// lengthWeights returns the per-edge-id Dijkstra costs of a frozen
// architecture graph: the physical link length, or 1 where the floorplan
// offers none.
func lengthWeights(arch *topology.Architecture, f *graph.Frozen) []float64 {
	w := make([]float64, f.EdgeCount())
	ids := f.IDs()
	for e := range w {
		from, to := f.EdgeEndpoints(e)
		w[e] = 1
		if l, ok := arch.LinkBetween(ids[from], ids[to]); ok {
			w[e] = l.LengthMM
		}
	}
	return w
}

// Build constructs the routing table for an architecture. Preferred routes
// (the primitive-schedule routes recorded during synthesis) are installed
// first; all remaining node pairs are completed with shortest paths over
// the architecture links, weighted by physical length, with deterministic
// tie-breaks.
//
// Preferred routes are installed in listing order; a preferred route whose
// suffixes conflict with an already-installed one is relaxed to
// shortest-path completion for the conflicting pairs (the table must stay
// destination-deterministic: one next hop per (node, destination)).
//
// The table is assembled in the architecture's frozen index space: a
// dense next-hop matrix of edge ids, completed from one CSR shortest-path
// tree per source vertex (computed only if some destination of that
// source is not covered by a preferred route), validated by walking
// every pair through the matrix, and only then materialized as the
// Table map.
func Build(arch *topology.Architecture) (Table, error) {
	return buildTable(arch, true)
}

// BuildShortestPath constructs a routing table ignoring the architecture's
// preferred (schedule-derived) routes, using pure length-weighted shortest
// paths — the routing ablation of the Section 4.5 design choice. Like
// Build, it computes one CSR shortest-path tree per source vertex.
func BuildShortestPath(arch *topology.Architecture) (Table, error) {
	return buildTable(arch, false)
}

func buildTable(arch *topology.Architecture, preferred bool) (Table, error) {
	if arch == nil {
		return nil, fmt.Errorf("routing: nil architecture")
	}
	if !arch.Connected() {
		return nil, fmt.Errorf("routing: architecture %q is disconnected: %w", arch.Name, ErrNoRoute)
	}
	f := arch.Graph().Freeze()
	ids := f.IDs()
	n := len(ids)
	next := make([]int32, n*n)
	for i := range next {
		next[i] = noHop
	}
	if preferred {
		for _, pair := range arch.PreferredPairs() {
			route, _ := arch.PreferredRoute(pair[0], pair[1])
			installPreferred(f, next, route)
		}
	}

	w := lengthWeights(arch, f)
	var scratch graph.TreeScratch
	first := make([]int32, n)
	var stack []int32
	for si := range ids {
		row := next[si*n : (si+1)*n]
		treeDone := false
		for di := range ids {
			if di == si || row[di] != noHop {
				continue
			}
			if !treeDone {
				_, prev := f.ShortestPathTreeInto(si, w, &scratch)
				stack = firstHops(prev, si, first, stack)
				treeDone = true
			}
			if first[di] < 0 {
				return nil, &UnreachableError{Src: ids[si], Dst: ids[di]}
			}
			// Only the first hop: suffix hops may conflict with the
			// preferred routes of other pairs.
			e, _ := f.EdgeIndexBetween(si, int(first[di]))
			row[di] = int32(e)
		}
	}

	t := make(Table, n)
	for si, src := range ids {
		var row map[graph.NodeID]graph.NodeID
		for di, e := range next[si*n : (si+1)*n] {
			if e < 0 {
				continue
			}
			if row == nil {
				row = make(map[graph.NodeID]graph.NodeID, n-1)
				t[src] = row
			}
			_, to := f.EdgeEndpoints(int(e))
			row[ids[di]] = ids[to]
		}
	}
	if err := newMatrixWalker(f, t, next).allPairs(func([]int32) {}); err != nil {
		return nil, err
	}
	return t, nil
}

// installPreferred writes all suffix hops of a preferred route into the
// next-hop matrix: every intermediate node learns its next hop toward the
// route's destination. The first hop that conflicts with an installed
// entry stops the install; the hops before it stay, and the conflicting
// pairs fall through to shortest-path completion.
func installPreferred(f *graph.Frozen, next []int32, route []graph.NodeID) {
	n := f.NodeCount()
	d, ok := f.IndexOf(route[len(route)-1])
	if !ok {
		return
	}
	for i := 0; i+1 < len(route); i++ {
		u, uok := f.IndexOf(route[i])
		v, vok := f.IndexOf(route[i+1])
		if !uok || !vok {
			return
		}
		e, ok := f.EdgeIndexBetween(u, v)
		if !ok {
			return
		}
		cell := &next[u*n+d]
		if *cell != noHop && *cell != int32(e) {
			return
		}
		*cell = int32(e)
	}
}

// firstHops fills first[v] with the first hop of the tree path root→v of
// a ShortestPathTree prev array (-1 for the root and unreachable
// vertices), memoizing along each climb so the whole array costs O(n).
// stack is scratch, returned for reuse.
func firstHops(prev []int32, root int, first, stack []int32) []int32 {
	for v := range first {
		first[v] = -1
	}
	for v := range prev {
		if v == root || first[v] >= 0 || prev[v] < 0 {
			continue
		}
		stack = stack[:0]
		u := int32(v)
		for first[u] < 0 && prev[u] != int32(root) {
			stack = append(stack, u)
			u = prev[u]
		}
		if first[u] < 0 {
			first[u] = u
		}
		for _, x := range stack {
			first[x] = first[u]
		}
	}
	return stack
}

// XY builds dimension-ordered XY routing for a rows x cols mesh with
// row-major 1-based node ids: packets first correct the column (X), then
// the row (Y). XY routing on a mesh is deadlock-free.
func XY(rows, cols int) (Table, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("routing: bad mesh %dx%d", rows, cols)
	}
	t := make(Table)
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*cols + c + 1) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			n := id(r, c)
			for dr := 0; dr < rows; dr++ {
				for dc := 0; dc < cols; dc++ {
					d := id(dr, dc)
					if d == n {
						continue
					}
					var next graph.NodeID
					switch {
					case dc > c:
						next = id(r, c+1)
					case dc < c:
						next = id(r, c-1)
					case dr > r:
						next = id(r+1, c)
					default:
						next = id(r-1, c)
					}
					if err := t.set(n, d, next); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return t, nil
}

// Validate checks that the table is complete (every ordered pair has a
// route), loop-free, and uses only architecture links.
func Validate(t Table, arch *topology.Architecture) error {
	return newTableWalker(t, arch.Graph().Freeze()).allPairs(func([]int32) {})
}

// AverageHops returns the mean route length in hops over all ordered node
// pairs.
func AverageHops(t Table, arch *topology.Architecture) (float64, error) {
	total, count := 0, 0
	err := newTableWalker(t, arch.Graph().Freeze()).allPairs(func(edges []int32) {
		total += len(edges)
		count++
	})
	if err != nil {
		return 0, err
	}
	if count == 0 {
		return 0, nil
	}
	return float64(total) / float64(count), nil
}

// Channel is a directed use of a physical link.
type Channel struct {
	From, To graph.NodeID
}

// ChannelDependencyGraph builds the channel dependency graph of the routes
// in the table over the given traffic pairs (nil means all ordered pairs):
// vertices are directed channels, and an edge c1 -> c2 means some route
// holds c1 while requesting c2. Deadlock is possible iff this graph has a
// directed cycle (Dally & Seitz).
//
// Channels are encoded as graph vertices via a dense index, numbered in
// order of first use along the routes; the returned index maps channel ->
// vertex id. The dependencies are collected as a turn bitset in index
// space and materialized as a graph only here, for callers that want to
// inspect it; DeadlockFree and AssignVirtualChannels test the bitset
// directly.
func ChannelDependencyGraph(t Router, arch *topology.Architecture, pairs [][2]graph.NodeID) (*graph.Graph, map[Channel]graph.NodeID, error) {
	frz := arch.Graph().Freeze()
	ts := newTurnSet(frz)
	vertex := make([]graph.NodeID, frz.EdgeCount()) // 0 = channel unused
	var order []int32
	err := forEachRoute(t, frz, pairs, func(edges []int32) {
		for _, e := range edges {
			if vertex[e] == 0 {
				order = append(order, e)
				vertex[e] = graph.NodeID(len(order))
			}
		}
		ts.addRoute(edges)
	})
	if err != nil {
		return nil, nil, err
	}
	ids := frz.IDs()
	cdg := graph.New("cdg")
	idx := make(map[Channel]graph.NodeID, len(order))
	for _, e := range order {
		from, to := frz.EdgeEndpoints(int(e))
		idx[Channel{From: ids[from], To: ids[to]}] = vertex[e]
		cdg.AddNode(vertex[e])
	}
	for _, e := range order {
		ts.forEachSucc(e, func(f int32) {
			cdg.SetEdge(graph.Edge{From: vertex[e], To: vertex[f]})
		})
	}
	return cdg, idx, nil
}

// DeadlockFree reports whether the routes over the given traffic pairs
// (nil = all pairs) are deadlock-free on a single virtual channel.
func DeadlockFree(t Router, arch *topology.Architecture, pairs [][2]graph.NodeID) (bool, error) {
	frz := arch.Graph().Freeze()
	ts := newTurnSet(frz)
	if err := forEachRoute(t, frz, pairs, ts.addRoute); err != nil {
		return false, err
	}
	return ts.acyclic(), nil
}

// VCAssignment maps each (route position) to a virtual channel, via the
// dateline scheme of AssignVirtualChannels — or via a custom scheme when
// the route source carries its own deadlock-freedom proof (the landmark
// router's tree-index VCs).
type VCAssignment struct {
	// NumVCs is the number of virtual channels required.
	NumVCs int
	// singleVC short-circuits escalation when the channel dependency
	// graph is acyclic and a single channel is provably sufficient.
	singleVC bool
	// labels is the frozen architecture graph that orders all directed
	// channels: the dateline label of a channel is its frozen edge id.
	// Packets ascend labels within a VC and bump the VC on every descent.
	labels *graph.Frozen
	// fn, when set, replaces the dateline scheme entirely: the route
	// source supplies the per-hop VC (and owns the deadlock-freedom
	// argument for it). It must be deterministic and safe for concurrent
	// calls, and must return values in [0, NumVCs).
	fn func(route []graph.NodeID, hop int) int
}

// label returns the dateline label of channel u->v: its edge id in the
// labelling graph, or 0 for a channel outside it.
func (a VCAssignment) label(u, v graph.NodeID) int32 {
	if a.labels == nil {
		return 0
	}
	ui, uok := a.labels.IndexOf(u)
	vi, vok := a.labels.IndexOf(v)
	if !uok || !vok {
		return 0
	}
	e, _ := a.labels.EdgeIndexBetween(ui, vi)
	return int32(e)
}

// VCForHop returns the virtual channel a packet occupies on the i-th hop
// (0-based) of the given route.
func (a VCAssignment) VCForHop(route []graph.NodeID, hop int) int {
	if a.fn != nil {
		return a.fn(route, hop)
	}
	if a.singleVC {
		return 0
	}
	vc := 0
	for i := 1; i <= hop; i++ {
		if a.label(route[i], route[i+1]) <= a.label(route[i-1], route[i]) {
			vc++
		}
	}
	return vc
}

// AssignVirtualChannels produces a provably deadlock-free virtual channel
// assignment for the table's routes over the given pairs (nil = all): all
// directed channels are totally ordered (the dateline order), a packet
// starts on VC 0 and moves to the next VC whenever its next channel does
// not increase in the order. Within one VC, every dependency goes up the
// order, so each VC's dependency graph is acyclic and the whole network is
// deadlock-free (Dally & Seitz dateline argument). NumVCs is 1 + the
// maximum number of descents on any route.
//
// The dateline order is the lexicographic (from, to) order of every
// directed channel of the architecture — which is exactly the frozen
// edge-id order, so a channel's label is its edge id and a descent is
// an edge id no greater than the previous one. The order covers every
// channel, not only those the given pairs traverse, so restricting the
// pairs never changes the assignment of the routes they cover — and
// routes compiled lazily later (pairs outside a sparse demand set)
// still receive meaningful labels. Every route must use architecture
// links only.
func AssignVirtualChannels(t Router, arch *topology.Architecture, pairs [][2]graph.NodeID) (VCAssignment, error) {
	frz := arch.Graph().Freeze()
	ts := newTurnSet(frz)
	maxDescents := 0
	err := forEachRoute(t, frz, pairs, func(edges []int32) {
		descents := 0
		for i := 1; i < len(edges); i++ {
			ts.add(edges[i-1], edges[i])
			if edges[i] <= edges[i-1] {
				descents++
			}
		}
		maxDescents = max(maxDescents, descents)
	})
	if err != nil {
		return VCAssignment{}, err
	}
	a := VCAssignment{NumVCs: 1, labels: frz}
	// If the channel dependency graph is already acyclic (as for XY on a
	// mesh), a single channel is provably deadlock-free and no dateline
	// escalation is needed.
	if ts.acyclic() {
		a.singleVC = true
		return a, nil
	}
	a.NumVCs = maxDescents + 1
	return a, nil
}
