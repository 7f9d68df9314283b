package routing

// Index-space route walking. Every consumer of a route set — validation,
// hop statistics, the channel dependency graph, VC assignment and plan
// compilation — works on routes as sequences of frozen edge ids of the
// architecture graph: a channel is an edge id, its dateline label is the
// same edge id, and a channel dependency is a turn bit. All-pairs
// consumers of a Table read it once into a dense next-hop matrix and
// resolve each ordered pair with one walk through it; other route
// sources answer Route and have their node ids translated.

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Sentinels of the next-hop matrix.
const (
	noHop  = -1 // the table has no entry for the pair
	badHop = -2 // the entry names a node that is not a neighbor
)

// routeWalker resolves ordered pairs of dense indices to their routes as
// frozen edge ids. With next set it walks the n×n next-hop matrix
// (next[s*n+d] is the edge id of s's hop toward d) and consults router
// only to explain a pair the matrix cannot resolve; otherwise it asks
// router for every route. Not safe for concurrent use: a walk returns
// the walker's own buffer, valid until the next walk.
type routeWalker struct {
	frz    *graph.Frozen
	router Router
	next   []int32
	head   []int32 // head[e]: target index of edge e, beside next
	buf    []int32
}

// newTableWalker reads a table into the next-hop matrix over frz. An
// entry whose next hop is not a neighbor of its node (a missing link or
// a node outside the architecture) is kept as badHop, so only walks
// that reach it fail.
func newTableWalker(t Table, frz *graph.Frozen) *routeWalker {
	ids := frz.IDs()
	n := len(ids)
	next := make([]int32, n*n)
	var nbr []graph.NodeID
	for s, src := range ids {
		nbr = nbr[:0]
		for _, v := range frz.Out(s) {
			nbr = append(nbr, ids[v])
		}
		base := int32(frz.OutEdgeStart(s))
		row, trow := next[s*n:(s+1)*n], t[src]
		for d, dst := range ids {
			nh, ok := trow[dst]
			if !ok || d == s {
				row[d] = noHop
				continue
			}
			k, ok := slices.BinarySearch(nbr, nh)
			if !ok {
				row[d] = badHop
				continue
			}
			row[d] = base + int32(k)
		}
	}
	return newMatrixWalker(frz, t, next)
}

// newMatrixWalker wraps a filled next-hop matrix; router explains the
// pairs the matrix cannot resolve.
func newMatrixWalker(frz *graph.Frozen, router Router, next []int32) *routeWalker {
	head := make([]int32, frz.EdgeCount())
	for e := range head {
		_, head[e] = frz.EdgeEndpoints(e)
	}
	return &routeWalker{frz: frz, router: router, next: next, head: head}
}

// newAllPairsWalker returns the walker an all-pairs consumer uses: the
// next-hop matrix for a Table, per-pair Route for any other source.
func newAllPairsWalker(r Router, frz *graph.Frozen) *routeWalker {
	if t, ok := r.(Table); ok {
		return newTableWalker(t, frz)
	}
	return &routeWalker{frz: frz, router: r}
}

// walk returns the route s→d (s != d) as edge ids.
func (w *routeWalker) walk(s, d int) ([]int32, error) {
	if w.next == nil {
		ids := w.frz.IDs()
		return w.resolve(ids[s], ids[d])
	}
	buf, next, n := w.buf[:0], w.next, w.frz.NodeCount()
	for cur := s; cur != d; {
		e := next[cur*n+d]
		if e < 0 || len(buf) == n {
			// No entry, a bad hop, or more hops than nodes (a loop):
			// let the route source name the failure.
			ids := w.frz.IDs()
			_, err := w.resolve(ids[s], ids[d])
			if err == nil {
				err = fmt.Errorf("routing: route %d->%d does not resolve", ids[s], ids[d])
			}
			return nil, err
		}
		buf = append(buf, e)
		cur = int(w.head[e])
	}
	w.buf = buf
	return buf, nil
}

// resolve asks the route source for src→dst and translates the node ids
// into edge ids, rejecting nodes outside the architecture and hops over
// links it lacks.
func (w *routeWalker) resolve(src, dst graph.NodeID) ([]int32, error) {
	route, err := w.router.Route(src, dst)
	if err != nil {
		return nil, err
	}
	w.buf = w.buf[:0]
	prev := -1
	for _, id := range route {
		v, ok := w.frz.IndexOf(id)
		if !ok {
			return nil, fmt.Errorf("routing: %d->%d: route visits unknown node %d", src, dst, id)
		}
		if prev >= 0 {
			e, ok := w.frz.EdgeIndexBetween(prev, v)
			if !ok {
				// A stale table compiled against a fault-masked
				// architecture lands here: the route exists but a
				// link it uses does not, so the pair is unroutable
				// on this topology and the typed sentinel applies.
				return nil, fmt.Errorf("routing: %d->%d uses missing link %d-%d: %w",
					src, dst, w.frz.IDOf(prev), id, ErrNoRoute)
			}
			w.buf = append(w.buf, int32(e))
		}
		prev = v
	}
	return w.buf, nil
}

// allPairs walks every ordered pair in (src, dst) index order, handing
// each route to visit; the first unresolvable pair stops the walk.
func (w *routeWalker) allPairs(visit func(edges []int32)) error {
	n := w.frz.NodeCount()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			edges, err := w.walk(s, d)
			if err != nil {
				return err
			}
			visit(edges)
		}
	}
	return nil
}

// forEachRoute hands visit the route of every listed pair in order (nil
// = every ordered pair). Self pairs have no hops and are skipped.
func forEachRoute(r Router, frz *graph.Frozen, pairs [][2]graph.NodeID, visit func(edges []int32)) error {
	if pairs == nil {
		return newAllPairsWalker(r, frz).allPairs(visit)
	}
	w := &routeWalker{frz: frz, router: r}
	for _, pr := range pairs {
		if pr[0] == pr[1] {
			continue
		}
		edges, err := w.resolve(pr[0], pr[1])
		if err != nil {
			return err
		}
		visit(edges)
	}
	return nil
}

// turnSet is a channel dependency graph in index space. Its vertices are
// frozen edge ids; a dependency e → f (a route holds e and requests f,
// so f leaves e's head) is one bit of a bitset over the architecture's
// turns, numbered per in-edge by the out-slot taken: e's turns are bits
// base[e] .. base[e+1]-1, and f's bit is off[e]+f.
type turnSet struct {
	base []int32 // len E+1
	off  []int32 // base[e] minus the first edge id leaving e's head
	bits []uint64
}

func newTurnSet(frz *graph.Frozen) *turnSet {
	m := frz.EdgeCount()
	ts := &turnSet{base: make([]int32, m+1), off: make([]int32, m)}
	for e := 0; e < m; e++ {
		_, head := frz.EdgeEndpoints(e)
		ts.off[e] = ts.base[e] - int32(frz.OutEdgeStart(int(head)))
		ts.base[e+1] = ts.base[e] + int32(frz.OutDegree(int(head)))
	}
	ts.bits = make([]uint64, (ts.base[m]+63)/64)
	return ts
}

// add records the dependency e → f; f must leave e's head.
func (ts *turnSet) add(e, f int32) {
	b := ts.off[e] + f
	ts.bits[b>>6] |= 1 << uint(b&63)
}

// addRoute records the dependencies between consecutive hops of a route.
func (ts *turnSet) addRoute(edges []int32) {
	for i := 1; i < len(edges); i++ {
		ts.add(edges[i-1], edges[i])
	}
}

// forEachSucc calls fn with every recorded successor of e, ascending.
func (ts *turnSet) forEachSucc(e int32, fn func(f int32)) {
	for b := ts.base[e]; b < ts.base[e+1]; b++ {
		if ts.bits[b>>6]&(1<<uint(b&63)) != 0 {
			fn(b - ts.off[e])
		}
	}
}

// acyclic reports whether the dependency graph has no directed cycle,
// by Kahn's algorithm: repeatedly retire channels nothing depends on.
func (ts *turnSet) acyclic() bool {
	m := len(ts.off)
	indeg := make([]int32, m)
	for e := range ts.off {
		ts.forEachSucc(int32(e), func(f int32) { indeg[f]++ })
	}
	queue := make([]int32, 0, m)
	for e, d := range indeg {
		if d == 0 {
			queue = append(queue, int32(e))
		}
	}
	for i := 0; i < len(queue); i++ {
		ts.forEachSucc(queue[i], func(f int32) {
			if indeg[f]--; indeg[f] == 0 {
				queue = append(queue, f)
			}
		})
	}
	return len(queue) == m
}
