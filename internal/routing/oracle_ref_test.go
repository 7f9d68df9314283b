package routing

// The map-walking routing pipeline the index-space implementation
// replaced, kept verbatim (modulo names) as the equivalence oracle:
// every pair resolved through Table.Route, dateline labels held in a
// map over sorted channels, the channel dependency graph built as a
// map-backed graph.Graph, and compiled plans resolved per hop through
// the label map. oracle_test.go asserts the production pipeline
// reproduces its tables, VC counts, per-hop VCs, deadlock verdicts and
// compiled fingerprints.

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/topology"
)

// refInstallPath writes all suffix hops of a path into the table.
func refInstallPath(t Table, path []graph.NodeID) error {
	dst := path[len(path)-1]
	for i := 0; i+1 < len(path); i++ {
		if err := t.set(path[i], dst, path[i+1]); err != nil {
			return err
		}
	}
	return nil
}

// refBuild is the map-walking Build.
func refBuild(arch *topology.Architecture) (Table, error) {
	if arch == nil {
		return nil, fmt.Errorf("routing: nil architecture")
	}
	if !arch.Connected() {
		return nil, fmt.Errorf("routing: architecture %q is disconnected: %w", arch.Name, ErrNoRoute)
	}
	t := make(Table)
	for _, pair := range arch.PreferredPairs() {
		route, _ := arch.PreferredRoute(pair[0], pair[1])
		if err := refInstallPath(t, route); err != nil {
			continue
		}
	}
	f := arch.Graph().Freeze()
	w := lengthWeights(arch, f)
	ids := f.IDs()
	for si, src := range ids {
		var prev []int32
		for di, dst := range ids {
			if src == dst {
				continue
			}
			if _, ok := t.NextHop(src, dst); ok {
				continue
			}
			if prev == nil {
				_, prev = f.ShortestPathTree(si, w)
			}
			path, ok := graph.PathFromTree(prev, si, di)
			if !ok {
				return nil, &UnreachableError{Src: src, Dst: dst}
			}
			if err := t.set(src, dst, ids[path[1]]); err != nil {
				return nil, err
			}
		}
	}
	if err := refValidate(t, arch); err != nil {
		return nil, err
	}
	return t, nil
}

// refValidate is the map-walking Validate.
func refValidate(t Table, arch *topology.Architecture) error {
	nodes := arch.Nodes()
	for _, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			path, err := t.Route(src, dst)
			if err != nil {
				return err
			}
			for i := 0; i+1 < len(path); i++ {
				if !arch.HasLink(path[i], path[i+1]) {
					return fmt.Errorf("routing: %d->%d uses missing link %d-%d",
						src, dst, path[i], path[i+1])
				}
			}
		}
	}
	return nil
}

// refAverageHops is the map-walking AverageHops.
func refAverageHops(t Table, arch *topology.Architecture) (float64, error) {
	nodes := arch.Nodes()
	total, count := 0, 0
	for _, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			path, err := t.Route(src, dst)
			if err != nil {
				return 0, err
			}
			total += len(path) - 1
			count++
		}
	}
	if count == 0 {
		return 0, nil
	}
	return float64(total) / float64(count), nil
}

func refAllPairs(arch *topology.Architecture) [][2]graph.NodeID {
	var pairs [][2]graph.NodeID
	nodes := arch.Nodes()
	for _, s := range nodes {
		for _, d := range nodes {
			if s != d {
				pairs = append(pairs, [2]graph.NodeID{s, d})
			}
		}
	}
	return pairs
}

// refChannelDependencyGraph is the map-backed ChannelDependencyGraph.
func refChannelDependencyGraph(t Router, arch *topology.Architecture, pairs [][2]graph.NodeID) (*graph.Graph, map[Channel]graph.NodeID, error) {
	if pairs == nil {
		pairs = refAllPairs(arch)
	}
	idx := make(map[Channel]graph.NodeID)
	cdg := graph.New("cdg")
	chanID := func(c Channel) graph.NodeID {
		if id, ok := idx[c]; ok {
			return id
		}
		id := graph.NodeID(len(idx) + 1)
		idx[c] = id
		cdg.AddNode(id)
		return id
	}
	for _, pr := range pairs {
		path, err := t.Route(pr[0], pr[1])
		if err != nil {
			return nil, nil, err
		}
		for i := 0; i+2 < len(path); i++ {
			c1 := Channel{From: path[i], To: path[i+1]}
			c2 := Channel{From: path[i+1], To: path[i+2]}
			cdg.SetEdge(graph.Edge{From: chanID(c1), To: chanID(c2)})
		}
		if len(path) == 2 {
			chanID(Channel{From: path[0], To: path[1]})
		}
	}
	return cdg, idx, nil
}

// refDeadlockFree is the map-backed DeadlockFree.
func refDeadlockFree(t Router, arch *topology.Architecture, pairs [][2]graph.NodeID) (bool, error) {
	cdg, _, err := refChannelDependencyGraph(t, arch, pairs)
	if err != nil {
		return false, err
	}
	return !cdg.HasDirectedCycle(), nil
}

// refVCs is the map-labelled VC assignment.
type refVCs struct {
	NumVCs   int
	singleVC bool
	labels   map[Channel]int
}

func (a refVCs) vcForHop(route []graph.NodeID, hop int) int {
	if a.singleVC {
		return 0
	}
	vc := 0
	for i := 1; i <= hop; i++ {
		prev := Channel{From: route[i-1], To: route[i]}
		cur := Channel{From: route[i], To: route[i+1]}
		if a.labels[cur] <= a.labels[prev] {
			vc++
		}
	}
	return vc
}

// refAssignVirtualChannels is the map-labelled AssignVirtualChannels.
func refAssignVirtualChannels(t Router, arch *topology.Architecture, pairs [][2]graph.NodeID) (refVCs, error) {
	if pairs == nil {
		pairs = refAllPairs(arch)
	}
	chanSet := make(map[Channel]struct{})
	for _, l := range arch.Links() {
		chanSet[Channel{From: l.A, To: l.B}] = struct{}{}
		chanSet[Channel{From: l.B, To: l.A}] = struct{}{}
	}
	routes := make([][]graph.NodeID, 0, len(pairs))
	for _, pr := range pairs {
		path, err := t.Route(pr[0], pr[1])
		if err != nil {
			return refVCs{}, err
		}
		routes = append(routes, path)
		for i := 0; i+1 < len(path); i++ {
			chanSet[Channel{From: path[i], To: path[i+1]}] = struct{}{}
		}
	}
	chans := make([]Channel, 0, len(chanSet))
	for c := range chanSet {
		chans = append(chans, c)
	}
	sort.Slice(chans, func(i, j int) bool {
		if chans[i].From != chans[j].From {
			return chans[i].From < chans[j].From
		}
		return chans[i].To < chans[j].To
	})
	labels := make(map[Channel]int, len(chans))
	for i, c := range chans {
		labels[c] = i
	}
	a := refVCs{NumVCs: 1, labels: labels}
	if free, err := refDeadlockFree(t, arch, pairs); err == nil && free {
		a.singleVC = true
		return a, nil
	}
	for _, path := range routes {
		descents := 0
		for i := 2; i < len(path); i++ {
			prev := Channel{From: path[i-2], To: path[i-1]}
			cur := Channel{From: path[i-1], To: path[i]}
			if labels[cur] <= labels[prev] {
				descents++
			}
		}
		if descents+1 > a.NumVCs {
			a.NumVCs = descents + 1
		}
	}
	return a, nil
}

// refCompileAllPairs is the per-pair Route + per-hop label-map compile
// of the dense layout.
func refCompileAllPairs(router Router, arch *topology.Architecture, vc refVCs) (*CompiledTable, error) {
	frz := arch.Graph().Freeze()
	n := frz.NodeCount()
	if vc.NumVCs > maxCompiledVCs {
		return nil, fmt.Errorf("routing: %d virtual channels exceed the compiled plan limit %d", vc.NumVCs, maxCompiledVCs)
	}
	ids := frz.IDs()
	ct := &CompiledTable{frz: frz, numVCs: vc.NumVCs, start: make([]int32, n*n+1)}
	for si := range ids {
		for di := range ids {
			ct.start[si*n+di] = int32(len(ct.nodes))
			if si == di {
				continue
			}
			if err := refAppendPlan(ct, router, ids, vc, si, di); err != nil {
				return nil, err
			}
		}
	}
	ct.start[n*n] = int32(len(ct.nodes))
	return ct, nil
}

func refAppendPlan(ct *CompiledTable, router Router, ids []graph.NodeID, vc refVCs, si, di int) error {
	src, dst := ids[si], ids[di]
	route, err := router.Route(src, dst)
	if err != nil {
		return fmt.Errorf("routing: compile %d->%d: %w", src, dst, err)
	}
	frz := ct.frz
	for i, id := range route {
		ri, ok := frz.IndexOf(id)
		if !ok {
			return fmt.Errorf("routing: compile %d->%d: route visits unknown node %d", src, dst, id)
		}
		slot := int32(frz.OutDegree(ri))
		if i+1 < len(route) {
			next, ok := frz.IndexOf(route[i+1])
			if !ok {
				return fmt.Errorf("routing: compile %d->%d: route visits unknown node %d", src, dst, route[i+1])
			}
			slot, ok = csrSlotOf(frz.Out(ri), int32(next))
			if !ok {
				return fmt.Errorf("routing: compile %d->%d: route uses missing link %d-%d: %w",
					src, dst, id, route[i+1], ErrNoRoute)
			}
		}
		hopVC := 0
		if i+1 < len(route) {
			hopVC = vc.vcForHop(route, i)
			if maxVC := max(vc.NumVCs, 1); hopVC >= maxVC {
				return fmt.Errorf("routing: compile %d->%d: hop %d VC %d outside [0,%d)",
					src, dst, i, hopVC, maxVC)
			}
		}
		ct.nodes = append(ct.nodes, id)
		ct.vcs = append(ct.vcs, uint8(hopVC))
		ct.outSlot = append(ct.outSlot, slot)
	}
	return nil
}
