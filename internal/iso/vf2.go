// Package iso implements VF2 subgraph isomorphism search for directed
// graphs, following Cordella, Foggia, Sansone and Vento (IEEE TPAMI 2004),
// the algorithm the paper uses for its matching step (references [12][13]).
//
// The decomposition algorithm needs subgraph *monomorphisms*: an injective
// vertex mapping from a pattern (a library representation graph) into a
// target (the remaining application graph) such that every pattern edge is
// present between the mapped vertices. Extra target edges are allowed and
// remain available for later matchings — this matches the paper's
// Definition 3/4, where the matched subgraph S need not be induced.
//
// The search enumerates matchings in a deterministic order, supports a
// result cap and a deadline (the paper notes run time explodes when no
// isomorphism exists and suggests a time-out, Section 5.1), and prunes with
// VF2's one-look-ahead feasibility rules plus a degree pre-filter.
//
// The search state lives entirely in dense index space over graph.Frozen
// CSR views: adjacency rows are read as zero-copy subslices, target-edge
// membership is a flat bitset, and the solver's edge-subset bitmask
// (graph.EdgeMask) restricts the target without materializing a subtracted
// graph. There is one search path. Each matching is recorded as the dense
// pattern-to-target index vector, appended to one flat buffer; FindAll and
// FindAllFrozen convert that buffer into Mappings, while the decomposition
// solver reads it directly through a reusable per-worker Matcher.
package iso

import (
	"errors"
	"sort"
	"time"

	"repro/internal/graph"
)

// Mapping is an injective assignment of pattern vertices to target
// vertices.
type Mapping map[graph.NodeID]graph.NodeID

// Clone returns a copy of the mapping.
func (m Mapping) Clone() Mapping {
	c := make(Mapping, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// Pairs returns the mapping as (patternVertex, targetVertex) pairs sorted
// by pattern vertex, the order the paper's sample outputs use.
func (m Mapping) Pairs() [][2]graph.NodeID {
	out := make([][2]graph.NodeID, 0, len(m))
	for k, v := range m {
		out = append(out, [2]graph.NodeID{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Options controls the search.
type Options struct {
	// Limit stops the enumeration after this many matchings have been
	// reported. Zero means unlimited.
	Limit int
	// Deadline aborts the search when exceeded. Zero means no deadline.
	Deadline time.Time
	// Induced requires the matched subgraph to be induced: target edges
	// between mapped vertices must also exist in the pattern. The
	// decomposition flow leaves this false (monomorphism).
	Induced bool
}

// ErrDeadline is returned by FindAll when the search was cut short by the
// deadline. Matchings found before the cut-off are still returned.
var ErrDeadline = errors.New("iso: search deadline exceeded")

// Exists reports whether at least one subgraph monomorphism from pattern
// into target exists.
func Exists(pattern, target *graph.Graph) bool {
	ms, _ := FindAll(pattern, target, Options{Limit: 1})
	return len(ms) > 0
}

// FindFirst returns the first matching in the deterministic search order,
// or ok=false if none exists.
func FindFirst(pattern, target *graph.Graph) (Mapping, bool) {
	ms, _ := FindAll(pattern, target, Options{Limit: 1})
	if len(ms) == 0 {
		return nil, false
	}
	return ms[0], true
}

// FindAll enumerates subgraph monomorphisms from pattern into target, up to
// opts.Limit. The error is ErrDeadline if the deadline cut the enumeration
// short, nil otherwise. It freezes both graphs and delegates to
// FindAllFrozen; callers issuing many queries against the same graphs
// should freeze once themselves.
func FindAll(pattern, target *graph.Graph, opts Options) ([]Mapping, error) {
	return FindAllFrozen(pattern.Freeze(), target.Freeze(), nil, opts)
}

// FindAllFrozen enumerates subgraph monomorphisms from the frozen pattern
// into the frozen target restricted to the edges set in mask (nil means
// every edge). Enumeration order is identical to FindAll on the equivalent
// map graphs: dense indices ascend by NodeID in both representations. It is
// Matcher.FindAll with each dense result converted into a Mapping.
func FindAllFrozen(pattern, target *graph.Frozen, mask graph.EdgeMask, opts Options) ([]Mapping, error) {
	var m Matcher
	flat, err := m.FindAll(pattern, target, mask, opts)
	pn := pattern.NodeCount()
	var out []Mapping
	for r := 0; r < len(flat); r += pn {
		mp := make(Mapping, pn)
		for pi, ti := range flat[r : r+pn] {
			mp[pattern.IDOf(pi)] = target.IDOf(int(ti))
		}
		out = append(out, mp)
	}
	return out, err
}

// Matcher is a reusable VF2 search. Its buffers survive between calls and
// are re-targeted to each new (pattern, target, mask) query, so a caller
// that issues many queries — a decomposition worker matching every
// library primitive at every tree node — allocates only while a query
// outgrows them. A Matcher is not safe for concurrent use; the zero value
// is ready to use.
type Matcher struct {
	s state
}

// FindAll is FindAllFrozen in dense form. Each matching is
// pattern.NodeCount() consecutive entries of the returned buffer: entry k
// is the target dense index that pattern dense index k maps to. Matchings
// come in FindAllFrozen's order. The buffer belongs to the Matcher and is
// overwritten by its next call.
func (m *Matcher) FindAll(pattern, target *graph.Frozen, mask graph.EdgeMask, opts Options) ([]int32, error) {
	s := &m.s
	s.reset(pattern, target, mask, opts)
	if !s.plausible() {
		return nil, nil
	}
	err := s.search(0)
	return s.results, err
}

// state carries the VF2 search state in dense index space. Pattern and
// target adjacency rows alias the Frozen CSR storage (or, under a mask,
// filtered copies packed into one flat backing array); core arrays hold the
// partial mapping; terminal-set membership depths (tin/tout) implement the
// VF2 look-ahead sets; tAdjOut/tAdjIn are flat bitsets for O(1) target edge
// membership. Every slice is reused across reset calls.
type state struct {
	opts Options

	pn, tn int // vertex counts

	pOut, pIn [][]int32 // pattern adjacency (dense)
	tOut, tIn [][]int32 // target adjacency (dense, mask-filtered)

	outFlat, inFlat []int32 // backing arrays of the mask-filtered rows

	pEdges, tEdges int

	tw              int      // bitset row width in words
	tAdjOut, tAdjIn []uint64 // target adjacency bitsets, row per vertex

	core1 []int32 // pattern -> target (-1 unmapped)
	core2 []int32 // target -> pattern (-1 unmapped)

	// Terminal depths: nonzero means the vertex entered the respective
	// terminal set at that search depth.
	out1, in1 []int32
	out2, in2 []int32

	order   []int32 // pattern vertex visit order (connectivity-first)
	visited []bool  // connectivityOrder scratch
	all     []int32 // 0..tn-1, the candidates of an unanchored vertex

	results   []int32 // pn entries (a copy of core1) per matching
	found     int     // matchings recorded in results
	checkTick int
	deadline  bool
}

// reset re-targets the state to a new query, reusing every buffer that is
// already large enough.
func (s *state) reset(p, t *graph.Frozen, mask graph.EdgeMask, opts Options) {
	s.opts = opts
	s.pn, s.tn = p.NodeCount(), t.NodeCount()
	s.pEdges = p.EdgeCount()
	s.results, s.found = s.results[:0], 0
	s.checkTick, s.deadline = 0, false

	s.pOut, s.pIn = resize(s.pOut, s.pn), resize(s.pIn, s.pn)
	for i := 0; i < s.pn; i++ {
		s.pOut[i] = p.Out(i)
		s.pIn[i] = p.In(i)
	}

	s.tOut, s.tIn = resize(s.tOut, s.tn), resize(s.tIn, s.tn)
	if mask == nil {
		for i := 0; i < s.tn; i++ {
			s.tOut[i] = t.Out(i)
			s.tIn[i] = t.In(i)
		}
		s.tEdges = t.EdgeCount()
	} else {
		// Pack the mask-filtered rows into two flat backing arrays. The
		// capacity covers every edge, so the append never reallocates and
		// the row subslices stay valid.
		if cap(s.outFlat) < t.EdgeCount() {
			s.outFlat = make([]int32, 0, t.EdgeCount())
			s.inFlat = make([]int32, 0, t.EdgeCount())
		}
		outFlat, inFlat := s.outFlat[:0], s.inFlat[:0]
		for i := 0; i < s.tn; i++ {
			e := t.OutEdgeStart(i)
			lo := len(outFlat)
			for _, v := range t.Out(i) {
				if mask.Has(e) {
					outFlat = append(outFlat, v)
				}
				e++
			}
			s.tOut[i] = outFlat[lo:len(outFlat):len(outFlat)]
		}
		for i := 0; i < s.tn; i++ {
			eids := t.InEdgeIDs(i)
			lo := len(inFlat)
			for k, v := range t.In(i) {
				if mask.Has(int(eids[k])) {
					inFlat = append(inFlat, v)
				}
			}
			s.tIn[i] = inFlat[lo:len(inFlat):len(inFlat)]
		}
		s.tEdges = len(outFlat)
	}

	s.tw = (s.tn + 63) / 64
	s.tAdjOut, s.tAdjIn = resize(s.tAdjOut, s.tn*s.tw), resize(s.tAdjIn, s.tn*s.tw)
	clear(s.tAdjOut)
	clear(s.tAdjIn)
	for i := 0; i < s.tn; i++ {
		row := i * s.tw
		for _, v := range s.tOut[i] {
			s.tAdjOut[row+int(v>>6)] |= 1 << uint(v&63)
		}
		for _, v := range s.tIn[i] {
			s.tAdjIn[row+int(v>>6)] |= 1 << uint(v&63)
		}
	}

	s.core1, s.core2 = resize(s.core1, s.pn), resize(s.core2, s.tn)
	for i := range s.core1 {
		s.core1[i] = -1
	}
	for i := range s.core2 {
		s.core2[i] = -1
	}
	s.out1, s.in1 = resize(s.out1, s.pn), resize(s.in1, s.pn)
	s.out2, s.in2 = resize(s.out2, s.tn), resize(s.in2, s.tn)
	clear(s.out1)
	clear(s.in1)
	clear(s.out2)
	clear(s.in2)
	s.all = resize(s.all, s.tn)
	for i := range s.all {
		s.all[i] = int32(i)
	}
	s.visited = resize(s.visited, s.pn)
	s.order = connectivityOrder(s.pOut, s.pIn, s.visited, s.order[:0])
}

// hasOutEdge reports whether the target edge ti->tt survives the mask.
func (s *state) hasOutEdge(ti, tt int32) bool {
	return s.tAdjOut[int(ti)*s.tw+int(tt>>6)]&(1<<uint(tt&63)) != 0
}

// hasInEdge reports whether the target edge tt->ti survives the mask.
func (s *state) hasInEdge(ti, tt int32) bool {
	return s.tAdjIn[int(ti)*s.tw+int(tt>>6)]&(1<<uint(tt&63)) != 0
}

// plausible applies cheap global pre-filters before the search starts.
func (s *state) plausible() bool {
	if s.pn == 0 {
		return false
	}
	if s.pn > s.tn {
		return false
	}
	return s.pEdges <= s.tEdges
}

// search tries to extend the partial mapping at the given depth (number of
// mapped pattern vertices). Returns ErrDeadline on deadline abort.
func (s *state) search(depth int) error {
	if s.deadline {
		return ErrDeadline
	}
	if !s.opts.Deadline.IsZero() {
		// Check the clock on the first node (so an already-expired deadline
		// truncates even trivial searches) and every 1024 nodes after.
		s.checkTick++
		if (s.checkTick == 1 || s.checkTick&0x3ff == 0) && time.Now().After(s.opts.Deadline) {
			s.deadline = true
			return ErrDeadline
		}
	}
	if depth == s.pn {
		s.results = append(s.results, s.core1...)
		s.found++
		return nil
	}

	pi := s.order[depth]
	for _, ti := range s.candidates(pi) {
		// Every branch below restores core2 before the next candidate, so
		// this skips exactly the vertices mapped when the loop began.
		if s.core2[ti] >= 0 || !s.feasible(pi, ti) {
			continue
		}
		s.addPair(pi, ti, int32(depth+1))
		if err := s.search(depth + 1); err != nil {
			s.removePair(pi, ti, int32(depth+1))
			return err
		}
		s.removePair(pi, ti, int32(depth+1))
		if s.opts.Limit > 0 && s.found >= s.opts.Limit {
			return nil
		}
	}
	return nil
}

// candidates returns the target vertices to try for pattern vertex pi, in
// ascending original-id order for determinism; the caller skips the ones
// already mapped. If pi has a mapped neighbor the candidates are
// restricted to the corresponding target neighborhood. The slice is
// read-only storage of the state.
func (s *state) candidates(pi int32) []int32 {
	// Prefer anchoring through an already-mapped pattern predecessor or
	// successor: candidates are then the target neighbors of its image.
	for _, pp := range s.pIn[pi] {
		if tt := s.core1[pp]; tt >= 0 {
			return s.tOut[tt]
		}
	}
	for _, pp := range s.pOut[pi] {
		if tt := s.core1[pp]; tt >= 0 {
			return s.tIn[tt]
		}
	}
	// No mapped neighbor (first vertex of a component): every target
	// vertex.
	return s.all
}

// feasible applies the VF2 syntactic feasibility rules for the candidate
// pair (pi, ti).
func (s *state) feasible(pi, ti int32) bool {
	// Degree filter: target vertex must offer at least the pattern degrees.
	if len(s.tOut[ti]) < len(s.pOut[pi]) || len(s.tIn[ti]) < len(s.pIn[pi]) {
		return false
	}

	// R_pred / R_succ: mapped pattern neighbors must correspond to target
	// edges (monomorphism direction).
	for _, pp := range s.pIn[pi] {
		if tt := s.core1[pp]; tt >= 0 {
			if !s.hasInEdge(ti, tt) {
				return false
			}
		}
	}
	for _, pp := range s.pOut[pi] {
		if tt := s.core1[pp]; tt >= 0 {
			if !s.hasOutEdge(ti, tt) {
				return false
			}
		}
	}
	if s.opts.Induced {
		// Reverse direction: mapped target neighbors of ti must be edges in
		// the pattern too.
		for _, tt := range s.tIn[ti] {
			if pp := s.core2[tt]; pp >= 0 {
				if !contains(s.pIn[pi], pp) {
					return false
				}
			}
		}
		for _, tt := range s.tOut[ti] {
			if pp := s.core2[tt]; pp >= 0 {
				if !contains(s.pOut[pi], pp) {
					return false
				}
			}
		}
	}

	// One-look-ahead: count pattern neighbors in terminal sets and in
	// neither set; the target must offer at least as many. For
	// monomorphism only the >= direction applies.
	var pTermOut, pTermIn, pNew int
	for _, pp := range s.pOut[pi] {
		switch {
		case s.core1[pp] >= 0:
		case s.out1[pp] > 0 || s.in1[pp] > 0:
			pTermOut++
		default:
			pNew++
		}
	}
	for _, pp := range s.pIn[pi] {
		switch {
		case s.core1[pp] >= 0:
		case s.out1[pp] > 0 || s.in1[pp] > 0:
			pTermIn++
		default:
			pNew++
		}
	}
	var tTermOut, tTermIn, tNew int
	for _, tt := range s.tOut[ti] {
		switch {
		case s.core2[tt] >= 0:
		case s.out2[tt] > 0 || s.in2[tt] > 0:
			tTermOut++
		default:
			tNew++
		}
	}
	for _, tt := range s.tIn[ti] {
		switch {
		case s.core2[tt] >= 0:
		case s.out2[tt] > 0 || s.in2[tt] > 0:
			tTermIn++
		default:
			tNew++
		}
	}
	return tTermOut >= pTermOut && tTermIn >= pTermIn && tTermOut+tTermIn+tNew >= pTermOut+pTermIn+pNew
}

func (s *state) addPair(pi, ti, depth int32) {
	s.core1[pi] = ti
	s.core2[ti] = pi
	for _, pp := range s.pOut[pi] {
		if s.out1[pp] == 0 {
			s.out1[pp] = depth
		}
	}
	for _, pp := range s.pIn[pi] {
		if s.in1[pp] == 0 {
			s.in1[pp] = depth
		}
	}
	for _, tt := range s.tOut[ti] {
		if s.out2[tt] == 0 {
			s.out2[tt] = depth
		}
	}
	for _, tt := range s.tIn[ti] {
		if s.in2[tt] == 0 {
			s.in2[tt] = depth
		}
	}
}

func (s *state) removePair(pi, ti, depth int32) {
	for _, pp := range s.pOut[pi] {
		if s.out1[pp] == depth {
			s.out1[pp] = 0
		}
	}
	for _, pp := range s.pIn[pi] {
		if s.in1[pp] == depth {
			s.in1[pp] = 0
		}
	}
	for _, tt := range s.tOut[ti] {
		if s.out2[tt] == depth {
			s.out2[tt] = 0
		}
	}
	for _, tt := range s.tIn[ti] {
		if s.in2[tt] == depth {
			s.in2[tt] = 0
		}
	}
	s.core1[pi] = -1
	s.core2[ti] = -1
}

// connectivityOrder visits pattern vertices so that each vertex after the
// first within a component has at least one previously-visited neighbor,
// maximizing anchoring. Components are entered at their highest-degree
// vertex; ties break toward lower dense index. visited (len n, any
// contents) is scratch; the order is appended to order.
func connectivityOrder(out, in [][]int32, visited []bool, order []int32) []int32 {
	n := len(out)
	clear(visited)
	for len(order) < n {
		// Pick the unvisited vertex with a visited neighbor, preferring
		// high degree; otherwise the highest-degree unvisited vertex.
		best, bestScore := int32(-1), -1
		for i := int32(0); i < int32(n); i++ {
			if visited[i] {
				continue
			}
			anchored := 0
			for _, j := range out[i] {
				if visited[j] {
					anchored = 1
					break
				}
			}
			if anchored == 0 {
				for _, j := range in[i] {
					if visited[j] {
						anchored = 1
						break
					}
				}
			}
			score := anchored*1000 + len(out[i]) + len(in[i])
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		visited[best] = true
		order = append(order, best)
	}
	return order
}

// resize returns s with length n, reallocating only when its capacity is
// short. Contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func contains(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
