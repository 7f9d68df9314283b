package noc

// Minimal-adaptive routing with an escape virtual channel, built on
// up*/down* legality (Autonet-style) so every route — adaptive or
// escape — is deadlock-free by construction on the live, fault-masked
// topology:
//
//   - A BFS spanning forest is built over the live routers and links,
//     rooted at the lowest live index of each component. Every live
//     directed channel is oriented "up" (toward the root: smaller
//     (level, index)) or "down"; a legal route takes zero or more up
//     moves followed by zero or more down moves — never down then up.
//     Ordering channels by their distance from the turn shows the
//     channel dependency graph of any set of legal routes is acyclic,
//     so no VC layering is even required for deadlock freedom; see
//     TestEscapeVCAcyclic for the machine-checked version.
//   - Each packet rides a single VC for its whole route: VC 0 is the
//     escape lane, reserved for the deterministic spanning-tree route
//     (up to the common ancestor, then down); VCs 1..NumVCs-1 are the
//     adaptive lanes, assigned round-robin. Dependencies never cross VC
//     layers and each layer's routes are legal, so the union stays
//     acyclic.
//   - The adaptive route is a minimal legal route: per-destination
//     distance tables over the two-phase (still-climbing / descending)
//     automaton are built by reverse BFS, and injection walks
//     distance-decreasing moves greedily, breaking ties toward the
//     neighbor with the fewest buffered flits (then the lowest index) —
//     congestion-aware but still deterministic.
//   - Escape fallback: when the tree route is as short as the adaptive
//     one and its first hop is strictly less congested, the packet
//     takes the escape lane instead.
//
// The state is rebuilt lazily whenever the topology changes (Reset,
// ResetWithFaults, a scheduled fault striking); on a topology the
// faults have disconnected, pairs with no live route are refused with
// ErrRouteFaulted and counted under Stats.Blocked.

import (
	"fmt"

	"repro/internal/graph"
)

// RoutingMode selects how Network.Inject resolves routes.
type RoutingMode int

const (
	// RoutingOblivious uses the compiled routing table's fixed plans —
	// the default, and the only mode golden fixtures pin.
	RoutingOblivious RoutingMode = iota
	// RoutingAdaptive chooses a minimal up*/down*-legal route per packet
	// over the live topology, with VC 0 as the escape lane.
	RoutingAdaptive
)

// String returns the mode's flag spelling.
func (m RoutingMode) String() string {
	switch m {
	case RoutingOblivious:
		return "oblivious"
	case RoutingAdaptive:
		return "adaptive"
	}
	return fmt.Sprintf("RoutingMode(%d)", int(m))
}

// ParseRoutingMode parses the -routing flag values; the empty string is
// the oblivious default.
func ParseRoutingMode(s string) (RoutingMode, error) {
	switch s {
	case "", "oblivious":
		return RoutingOblivious, nil
	case "adaptive":
		return RoutingAdaptive, nil
	}
	return 0, fmt.Errorf("noc: unknown routing mode %q (want oblivious or adaptive)", s)
}

// SetRouting selects the route-resolution mode for subsequent Inject
// calls. Adaptive mode needs at least two virtual channels (the escape
// lane plus one adaptive lane); the mode survives Reset, like packet
// recycling.
func (n *Network) SetRouting(m RoutingMode) error {
	switch m {
	case RoutingOblivious:
	case RoutingAdaptive:
		if n.cfg.NumVCs < 2 {
			return fmt.Errorf("noc: adaptive routing needs >= 2 virtual channels (escape VC 0 plus adaptive lanes), config has %d", n.cfg.NumVCs)
		}
	default:
		return fmt.Errorf("noc: unknown routing mode %d", int(m))
	}
	if m != n.routing {
		n.routing = m
		n.adaptDirty = true
	}
	return nil
}

// Routing returns the current route-resolution mode.
func (n *Network) Routing() RoutingMode { return n.routing }

// adaptiveState is the up*/down* machinery behind RoutingAdaptive,
// rebuilt against the live topology whenever it changes.
type adaptiveState struct {
	// level is the BFS-forest depth per dense node, -1 for down routers;
	// parent is the forest parent (-1 at roots and down routers).
	level  []int32
	parent []int32
	// up[e] orients live directed edge e: true when it points toward the
	// smaller (level, index) endpoint. Dead edges are never consulted.
	up []bool
	// distUp[d*n+v] is the minimum legal hop count from v to d while
	// still allowed to climb; distDown[d*n+v] the same once descending.
	// -1 = unreachable in that phase.
	distUp   []int32
	distDown []int32
	// laneSeq round-robins packets over the adaptive lanes; reset with
	// the network so Reset-equivalence holds.
	laneSeq uint32
	// routeBuf/treeBuf/tailBuf/idBuf/vcBuf are injection scratch —
	// InjectRouted copies out of them, so reuse across packets is safe.
	routeBuf []int32
	treeBuf  []int32
	tailBuf  []int32
	idBuf    []graph.NodeID
	vcBuf    []int
}

// ensureAdaptive rebuilds the adaptive state if the topology changed
// since it was last built.
func (n *Network) ensureAdaptive() {
	if n.adapt != nil && !n.adaptDirty {
		return
	}
	n.adapt = n.buildAdaptive()
	n.adaptDirty = false
}

// isLinkDown/isRouterDown tolerate pristine networks (nil fault arrays).
func (n *Network) isLinkDown(e int) bool       { return n.linkDown != nil && n.linkDown[e] }
func (n *Network) isRouterDown(v int) bool     { return n.routerDown != nil && n.routerDown[v] }
func (n *Network) isRouterDown32(v int32) bool { return n.routerDown != nil && n.routerDown[v] }

// buildAdaptive constructs the BFS forest, channel orientations and
// per-destination phase-distance tables over the live topology.
func (n *Network) buildAdaptive() *adaptiveState {
	nn := n.frz.NodeCount()
	st := &adaptiveState{
		level:    make([]int32, nn),
		parent:   make([]int32, nn),
		up:       make([]bool, n.frz.EdgeCount()),
		distUp:   make([]int32, nn*nn),
		distDown: make([]int32, nn*nn),
	}
	for i := range st.level {
		st.level[i] = -1
		st.parent[i] = -1
	}

	// BFS forest over live routers and channels, one root per component.
	queue := make([]int32, 0, nn)
	for root := 0; root < nn; root++ {
		if st.level[root] >= 0 || n.isRouterDown(root) {
			continue
		}
		st.level[root] = 0
		queue = append(queue[:0], int32(root))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			start := n.frz.OutEdgeStart(int(v))
			for k, w := range n.frz.Out(int(v)) {
				if n.isLinkDown(start+k) || n.isRouterDown32(w) || st.level[w] >= 0 {
					continue
				}
				st.level[w] = st.level[v] + 1
				st.parent[w] = v
				queue = append(queue, w)
			}
		}
	}

	// Orient every live channel.
	for e := 0; e < n.frz.EdgeCount(); e++ {
		if n.isLinkDown(e) {
			continue
		}
		from, to := n.frz.EdgeEndpoints(e)
		if st.level[from] < 0 || st.level[to] < 0 {
			continue
		}
		st.up[e] = st.level[to] < st.level[from] ||
			(st.level[to] == st.level[from] && to < from)
	}

	// Per-destination phase distances by reverse BFS over the legal-move
	// automaton. Forward moves: (v,UP) -up-> (u,UP); (v,UP) -down->
	// (w,DOWN); (v,DOWN) -down-> (w,DOWN). All moves cost one hop, so
	// FIFO order gives minimal distances on first visit.
	for i := range st.distUp {
		st.distUp[i] = -1
		st.distDown[i] = -1
	}
	type phState struct {
		v    int32
		down bool
	}
	q := make([]phState, 0, 2*nn)
	for d := 0; d < nn; d++ {
		if st.level[d] < 0 {
			continue
		}
		du := st.distUp[d*nn : (d+1)*nn]
		dd := st.distDown[d*nn : (d+1)*nn]
		du[d], dd[d] = 0, 0
		q = append(q[:0], phState{int32(d), false}, phState{int32(d), true})
		for len(q) > 0 {
			s := q[0]
			q = q[1:]
			var cur int32
			if s.down {
				cur = dd[s.v]
			} else {
				cur = du[s.v]
			}
			ins := n.frz.In(int(s.v))
			eids := n.frz.InEdgeIDs(int(s.v))
			for k, u := range ins {
				e := int(eids[k])
				if n.isLinkDown(e) || st.level[u] < 0 {
					continue
				}
				if st.up[e] {
					// u->v climbs: only (u,UP) may take it, landing (v,UP).
					if !s.down && du[u] < 0 {
						du[u] = cur + 1
						q = append(q, phState{u, false})
					}
				} else if s.down {
					// u->v descends: legal from both phases, landing (v,DOWN).
					if dd[u] < 0 {
						dd[u] = cur + 1
						q = append(q, phState{u, true})
					}
					if du[u] < 0 {
						du[u] = cur + 1
						q = append(q, phState{u, false})
					}
				}
			}
		}
	}
	return st
}

// adaptiveRoute walks a minimal legal route from si to di by following
// distance-decreasing moves, breaking ties toward the least-occupied
// (then lowest-index) neighbor. Caller guarantees reachability.
func (st *adaptiveState) adaptiveRoute(n *Network, si, di int) []int32 {
	nn := n.frz.NodeCount()
	du := st.distUp[di*nn : (di+1)*nn]
	dd := st.distDown[di*nn : (di+1)*nn]
	route := append(st.routeBuf[:0], int32(si))
	v, down := int32(si), false
	for v != int32(di) {
		var cur int32
		if down {
			cur = dd[v]
		} else {
			cur = du[v]
		}
		best, bestDown := int32(-1), false
		var bestOcc int32
		start := n.frz.OutEdgeStart(int(v))
		for k, w := range n.frz.Out(int(v)) {
			e := start + k
			if n.isLinkDown(e) || st.level[w] < 0 {
				continue
			}
			var ok, nextDown bool
			if st.up[e] {
				ok, nextDown = !down && du[w] == cur-1, false
			} else {
				ok, nextDown = dd[w] == cur-1, true
			}
			if !ok {
				continue
			}
			if occ := n.bufFlits[w]; best < 0 || occ < bestOcc {
				best, bestDown, bestOcc = w, nextDown, occ
			}
		}
		v, down = best, bestDown
		route = append(route, v)
	}
	st.routeBuf = route
	return route
}

// escapeRoute is the deterministic spanning-forest route: climb to the
// lowest common ancestor, then descend — up moves then down moves, so
// always legal. Caller guarantees si and di share a component.
func (st *adaptiveState) escapeRoute(si, di int) []int32 {
	route := st.treeBuf[:0]
	tail := st.tailBuf[:0]
	a, b := int32(si), int32(di)
	for st.level[a] > st.level[b] {
		route = append(route, a)
		a = st.parent[a]
	}
	for st.level[b] > st.level[a] {
		tail = append(tail, b)
		b = st.parent[b]
	}
	for a != b {
		route = append(route, a)
		a = st.parent[a]
		tail = append(tail, b)
		b = st.parent[b]
	}
	route = append(route, a)
	for i := len(tail) - 1; i >= 0; i-- {
		route = append(route, tail[i])
	}
	st.treeBuf, st.tailBuf = route, tail
	return route
}

// injectAdaptive resolves one packet's route adaptively and hands it to
// the explicit-route injection path (which validates and copies it into
// the packet's own buffers).
func (n *Network) injectAdaptive(src, dst graph.NodeID, bits int, tag string, si, di int) (*Packet, error) {
	n.ensureAdaptive()
	st := n.adapt
	nn := n.frz.NodeCount()
	if st.level[si] < 0 || st.level[di] < 0 || st.distUp[di*nn+si] < 0 {
		n.stats.Blocked++
		return nil, fmt.Errorf("noc: %d->%d: %w", src, dst, ErrRouteFaulted)
	}
	route := st.adaptiveRoute(n, si, di)
	escape := st.escapeRoute(si, di)
	// Escape fallback: the tree route wins only when it is as short as
	// the adaptive one and its first hop is strictly less congested.
	useEscape := len(escape) == len(route) &&
		n.bufFlits[escape[1]] < n.bufFlits[route[1]]
	lane := 0
	if useEscape {
		route = escape
	} else {
		lane = 1 + int(st.laneSeq)%(n.cfg.NumVCs-1)
		st.laneSeq++
	}
	ids := st.idBuf[:0]
	vcs := st.vcBuf[:0]
	for _, v := range route {
		ids = append(ids, n.frz.IDOf(int(v)))
		vcs = append(vcs, lane)
	}
	vcs[len(vcs)-1] = 0 // ejection convention
	st.idBuf, st.vcBuf = ids, vcs
	return n.InjectRouted(src, dst, bits, tag, ids, vcs)
}
