package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/floorplan"
	"repro/internal/graph"
	"repro/internal/iso"
	"repro/internal/primitives"
	"repro/internal/randgraph"
)

// refCandidate is one enumerate result computed the map-graph way.
type refCandidate struct {
	match   Match
	covered [][2]graph.NodeID
	wHops   float64
	weight  float64
}

// pairKey is the 16-bit-per-NodeID cover key the solver ranked by before
// it switched to edge ids; valid for the NodeIDs below 65536 used here.
func pairKey(covered [][2]graph.NodeID) string {
	var b strings.Builder
	for _, k := range covered {
		b.WriteString(string([]byte{byte(k[0] >> 8), byte(k[0]), byte(k[1] >> 8), byte(k[1])}))
	}
	return b.String()
}

// referenceEnumerate is enumerate built from the map-graph reference
// implementations: FindAllFrozen mappings, Match.CoveredEdges,
// coster.matchCost and Match.MappedRoute, deduplicated through a map keyed
// by the covered pairs.
func referenceEnumerate(sh *shared, c *coster, primIdx int, mask graph.EdgeMask) []refCandidate {
	plan := &sh.plans[primIdx]
	opts := iso.Options{}
	if sh.isoLimit > 0 {
		opts.Limit = sh.isoLimit
	}
	mappings, _ := iso.FindAllFrozen(plan.pat, sh.facg, mask, opts)
	best := map[string]refCandidate{}
	var order []string
	for _, mp := range mappings {
		m := Match{Primitive: plan.prim, Mapping: mp}
		covered := m.CoveredEdges()
		m.Cost = c.matchCost(m)
		key := pairKey(covered)
		old, ok := best[key]
		if !ok {
			order = append(order, key)
		}
		if !ok || m.Cost < old.match.Cost {
			best[key] = refCandidate{match: m, covered: covered}
		}
	}
	out := make([]refCandidate, 0, len(order))
	for _, key := range order {
		out = append(out, best[key])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].match.Cost < out[j].match.Cost })
	if sh.matchLimit > 0 && len(out) > sh.matchLimit {
		out = out[:sh.matchLimit]
	}
	for i := range out {
		for _, k := range out[i].covered {
			hops := 1.0
			if route, ok := out[i].match.MappedRoute(k[0], k[1]); ok && len(route) > 1 {
				hops = float64(len(route) - 1)
			}
			u, _ := sh.facg.IndexOf(k[0])
			v, _ := sh.facg.IndexOf(k[1])
			e, _ := sh.facg.EdgeIndexBetween(u, v)
			out[i].weight += sh.latWeight[e]
			out[i].wHops += sh.latWeight[e] * hops
		}
	}
	return out
}

// The dense matching step must agree exactly with the map-graph reference
// on every result: the same candidates in the same order, each with the
// same mapping, the covered edges Match.CoveredEdges reports, the cost
// coster.matchCost computes, and the wHops/weight MappedRoute yields. The
// ranks must order like the old NodeID-pair cover keys. Covers random
// ErdosRenyi ACGs and the AES ACG, every library primitive, both cost
// modes, random live masks, and both the default and unlimited caps.
func TestDenseEnumerateMatchesReference(t *testing.T) {
	lib := primitives.MustDefault()
	acgs := map[string]*graph.Graph{"aes": aesACG(8, 1)}
	for seed := int64(0); seed < 4; seed++ {
		g, err := randgraph.ErdosRenyi(11, 0.3, 8, 64, seed)
		if err != nil {
			t.Fatal(err)
		}
		acgs[fmt.Sprintf("er-%d", seed)] = g
	}
	for name, acg := range acgs {
		for _, mode := range []CostMode{CostLinks, CostEnergy} {
			for _, limit := range []int{0, -1} {
				p := Problem{
					ACG:       acg,
					Library:   lib,
					Placement: floorplan.Grid(12, 1, 1, 0.2),
					Energy:    energy.Tech180,
					Options:   Options{Mode: mode, MatchLimit: limit, IsoLimit: limit, DisableIsoCache: true},
				}
				sh, err := newShared(context.Background(), &p)
				if err != nil {
					t.Fatal(err)
				}
				w := sh.newWorker()
				ref := newCoster(&p, sh.facg, sh.minEdge, sh.remEdge)
				rng := rand.New(rand.NewSource(int64(len(name)) + int64(mode)*7 + int64(limit)))
				for trial := 0; trial < 6; trial++ {
					mask := graph.FullEdgeMask(sh.facg.EdgeCount())
					if trial > 0 {
						for e := 0; e < sh.facg.EdgeCount(); e++ {
							if rng.Float64() < 0.25 {
								mask.Clear(e)
							}
						}
					}
					for primIdx := range sh.plans {
						tag := fmt.Sprintf("%s mode %d limit %d trial %d %s", name, mode, limit, trial, sh.plans[primIdx].prim.Name)
						got := w.enumerate(primIdx, mask, graphSig{})
						want := referenceEnumerate(sh, &ref, primIdx, mask)
						checkCandidates(t, tag, sh, primIdx, got, want)
					}
				}
			}
		}
	}
}

func checkCandidates(t *testing.T, tag string, sh *shared, primIdx int, got []candidate, want []refCandidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", tag, len(got), len(want))
	}
	for i, c := range got {
		r := want[i]
		if fmt.Sprint(c.match.Mapping.Pairs()) != fmt.Sprint(r.match.Mapping.Pairs()) {
			t.Fatalf("%s #%d: mapping %v, want %v", tag, i, c.match.Mapping.Pairs(), r.match.Mapping.Pairs())
		}
		if c.match.Cost != r.match.Cost {
			t.Fatalf("%s #%d: cost %v, want %v", tag, i, c.match.Cost, r.match.Cost)
		}
		covered := make([][2]graph.NodeID, len(c.coveredIDs))
		for j, e := range c.coveredIDs {
			ed := sh.facg.EdgeAt(int(e))
			covered[j] = [2]graph.NodeID{ed.From, ed.To}
		}
		if fmt.Sprint(covered) != fmt.Sprint(c.match.CoveredEdges()) || fmt.Sprint(covered) != fmt.Sprint(r.covered) {
			t.Fatalf("%s #%d: covered %v, CoveredEdges %v, reference %v", tag, i, covered, c.match.CoveredEdges(), r.covered)
		}
		if c.wHops != r.wHops || c.weight != r.weight {
			t.Fatalf("%s #%d: wHops/weight %v/%v, want %v/%v", tag, i, c.wHops, c.weight, r.wHops, r.weight)
		}
		if c.rank != rankOf(primIdx, c.coveredIDs) {
			t.Fatalf("%s #%d: stored rank differs from rankOf", tag, i)
		}
		for j := range got {
			newLess := c.rank < got[j].rank
			oldLess := pairKey(r.covered) < pairKey(want[j].covered)
			if newLess != oldLess {
				t.Fatalf("%s: ranks of #%d and #%d order unlike their NodeID-pair keys", tag, i, j)
			}
		}
	}
}

// twoCliques returns two disjoint directed 4-cliques over the given IDs.
func twoCliques(a, b [4]graph.NodeID) *graph.Graph {
	g := graph.New("two-cliques")
	for _, ids := range [][4]graph.NodeID{a, b} {
		for _, u := range ids {
			for _, v := range ids {
				if u != v {
					g.AddEdge(graph.Edge{From: u, To: v, Volume: 1, Bandwidth: 1})
				}
			}
		}
	}
	return g
}

// Cover keys once kept only the low 16 bits of each NodeID, so the second
// clique at {65536..65539} collided with the first at {0..3}: the search
// skipped it as already ranked and solved to cost 16 instead of 8. The
// decomposition must not depend on how far apart the IDs are.
func TestSolveInvariantUnderNodeIDShift(t *testing.T) {
	solve := func(g *graph.Graph) Result {
		res, err := Solve(Problem{
			ACG:     g,
			Library: primitives.MustDefault(),
			Energy:  energy.Tech180,
			Options: Options{Mode: CostLinks, Parallelism: 1, Timeout: 30 * time.Second},
		})
		if err != nil || res.Best == nil {
			t.Fatalf("solve: %v (best %v)", err, res.Best)
		}
		return res
	}
	base := solve(twoCliques([4]graph.NodeID{0, 1, 2, 3}, [4]graph.NodeID{100, 101, 102, 103}))
	if base.Best.Cost != 8 || len(base.Best.Matches) != 2 {
		t.Fatalf("base: cost %g with %d matches, want 8 with 2", base.Best.Cost, len(base.Best.Matches))
	}
	for _, shifted := range []*graph.Graph{
		twoCliques([4]graph.NodeID{0, 1, 2, 3}, [4]graph.NodeID{65536, 65537, 65538, 65539}),
		twoCliques([4]graph.NodeID{65536, 65537, 65538, 65539}, [4]graph.NodeID{65636, 65637, 65638, 65639}),
	} {
		res := solve(shifted)
		if res.Best.Cost != base.Best.Cost || len(res.Best.Matches) != len(base.Best.Matches) {
			t.Fatalf("%v: cost %g with %d matches, want %g with %d", shifted.Nodes(),
				res.Best.Cost, len(res.Best.Matches), base.Best.Cost, len(base.Best.Matches))
		}
		if res.Stats.NodesExplored != base.Stats.NodesExplored {
			t.Fatalf("%v: explored %d nodes, want %d", shifted.Nodes(), res.Stats.NodesExplored, base.Stats.NodesExplored)
		}
		if err := res.Best.CoverIsExact(shifted); err != nil {
			t.Fatal(err)
		}
	}
}

// A validated library may still route through a vertex its representation
// graph lacks (Validate checks routes against the implementation graph);
// the solver must refuse it with an error rather than panic.
func TestSolveRejectsRouteOutsideRepresentation(t *testing.T) {
	rep := graph.New("rep")
	for _, id := range []graph.NodeID{1, 2, 4} {
		rep.AddNode(id)
	}
	rep.AddEdge(graph.Edge{From: 1, To: 2})
	impl := graph.New("impl")
	for _, e := range [][2]graph.NodeID{{1, 3}, {3, 1}, {3, 2}, {2, 3}} {
		impl.AddEdge(graph.Edge{From: e[0], To: e[1]})
	}
	lib, err := primitives.FromPrimitives(&primitives.Primitive{
		Name: "detour", Size: 3, Rep: rep, Impl: impl,
		Routes: map[[2]graph.NodeID][]graph.NodeID{{1, 2}: {1, 3, 2}},
	})
	if err != nil {
		t.Fatalf("library should validate: %v", err)
	}
	acg := graph.New("acg")
	acg.AddEdge(graph.Edge{From: 1, To: 2, Volume: 1})
	if _, err := Solve(Problem{ACG: acg, Library: lib, Energy: energy.Tech180}); err == nil {
		t.Fatal("solve accepted a route outside the representation graph")
	}
}
