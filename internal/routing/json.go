package routing

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/graph"
)

// The wire forms below are deterministic by construction: maps are
// flattened into arrays sorted by their numeric keys before encoding, so
// equal values always marshal to identical bytes. encoding/json's own map
// encoding sorts keys as strings ("10" < "2"), which is stable but
// surprising to diff; the explicit arrays keep the output both canonical
// and readable. internal/service relies on byte-identical encodes to serve
// cached results that compare equal to fresh ones.

// jsonHop is one routing-table entry: at node, toward dst, go to next.
type jsonHop struct {
	Node graph.NodeID `json:"node"`
	Dst  graph.NodeID `json:"dst"`
	Next graph.NodeID `json:"next"`
}

// MarshalJSON encodes the table as a flat hop list sorted by (node, dst).
func (t Table) MarshalJSON() ([]byte, error) {
	hops := make([]jsonHop, 0, len(t)*len(t))
	for n, row := range t {
		for d, nh := range row {
			hops = append(hops, jsonHop{Node: n, Dst: d, Next: nh})
		}
	}
	sort.Slice(hops, func(i, j int) bool {
		if hops[i].Node != hops[j].Node {
			return hops[i].Node < hops[j].Node
		}
		return hops[i].Dst < hops[j].Dst
	})
	return json.Marshal(hops)
}

// UnmarshalJSON decodes a hop list produced by MarshalJSON. Conflicting
// duplicate entries are rejected.
func (t *Table) UnmarshalJSON(data []byte) error {
	var hops []jsonHop
	if err := json.Unmarshal(data, &hops); err != nil {
		return err
	}
	out := make(Table, len(hops)/4+1)
	for _, h := range hops {
		if err := out.set(h.Node, h.Dst, h.Next); err != nil {
			return err
		}
	}
	*t = out
	return nil
}

// jsonVCs is the wire form of a VCAssignment: the dateline label of every
// directed channel, sorted by (from, to) — which makes each label its
// own position in the list.
type jsonVCs struct {
	NumVCs   int         `json:"numVCs"`
	SingleVC bool        `json:"singleVC"`
	Labels   []jsonLabel `json:"labels,omitempty"`
}

type jsonLabel struct {
	From  graph.NodeID `json:"from"`
	To    graph.NodeID `json:"to"`
	Label int          `json:"label"`
}

// MarshalJSON encodes the assignment deterministically.
func (a VCAssignment) MarshalJSON() ([]byte, error) {
	jv := jsonVCs{NumVCs: a.NumVCs, SingleVC: a.singleVC}
	if f := a.labels; f != nil {
		ids := f.IDs()
		for e := 0; e < f.EdgeCount(); e++ {
			from, to := f.EdgeEndpoints(e)
			jv.Labels = append(jv.Labels, jsonLabel{From: ids[from], To: ids[to], Label: e})
		}
	}
	return json.Marshal(jv)
}

// UnmarshalJSON decodes an assignment produced by MarshalJSON. The labels
// must be the canonical ones: channels strictly ascending by (from, to),
// each labelled with its position.
func (a *VCAssignment) UnmarshalJSON(data []byte) error {
	var jv jsonVCs
	if err := json.Unmarshal(data, &jv); err != nil {
		return err
	}
	var labels *graph.Frozen
	if len(jv.Labels) > 0 {
		g := graph.New("labels")
		for i, l := range jv.Labels {
			if i > 0 {
				p := jv.Labels[i-1]
				if p.From == l.From && p.To == l.To {
					return fmt.Errorf("routing: duplicate channel label %d->%d", l.From, l.To)
				}
				if p.From > l.From || (p.From == l.From && p.To > l.To) {
					return fmt.Errorf("routing: channel labels not sorted at %d->%d", l.From, l.To)
				}
			}
			if l.Label != i {
				return fmt.Errorf("routing: channel %d->%d has label %d, want its position %d", l.From, l.To, l.Label, i)
			}
			g.SetEdge(graph.Edge{From: l.From, To: l.To})
		}
		labels = g.Freeze()
	}
	*a = VCAssignment{NumVCs: jv.NumVCs, singleVC: jv.SingleVC, labels: labels}
	return nil
}
