package routing

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// TestTableJSONRoundTrip: the canonical hop-list wire form round-trips
// and encodes deterministically.
func TestTableJSONRoundTrip(t *testing.T) {
	arch, err := topology.Mesh(3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	table, err := XY(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	enc1, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	var dec Table
	if err := json.Unmarshal(enc1, &dec); err != nil {
		t.Fatal(err)
	}
	enc2, err := json.Marshal(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatal("table round trip not byte-exact")
	}
	if err := Validate(dec, arch); err != nil {
		t.Fatalf("decoded table invalid: %v", err)
	}
}

func TestTableJSONRejectsConflicts(t *testing.T) {
	var dec Table
	err := json.Unmarshal([]byte(`[{"node":1,"dst":2,"next":2},{"node":1,"dst":2,"next":3}]`), &dec)
	if err == nil {
		t.Fatal("conflicting hops decoded")
	}
}

// TestVCAssignmentJSONRoundTrip: labels, NumVCs and the single-VC
// shortcut all survive, and VCForHop answers identically after the trip.
func TestVCAssignmentJSONRoundTrip(t *testing.T) {
	arch, err := topology.Mesh(2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	table, err := XY(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	vcs, err := AssignVirtualChannels(table, arch, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc1, err := json.Marshal(vcs)
	if err != nil {
		t.Fatal(err)
	}
	var dec VCAssignment
	if err := json.Unmarshal(enc1, &dec); err != nil {
		t.Fatal(err)
	}
	enc2, err := json.Marshal(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatal("VC assignment round trip not byte-exact")
	}
	if dec.NumVCs != vcs.NumVCs {
		t.Fatalf("NumVCs %d -> %d", vcs.NumVCs, dec.NumVCs)
	}
	for _, src := range arch.Nodes() {
		for _, dst := range arch.Nodes() {
			if src == dst {
				continue
			}
			route, err := table.Route(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			for hop := 0; hop+1 < len(route); hop++ {
				if dec.VCForHop(route, hop) != vcs.VCForHop(route, hop) {
					t.Fatalf("VCForHop differs after round trip on %v hop %d", route, hop)
				}
			}
		}
	}
}

// TestVCAssignmentJSONRejectsNonCanonicalLabels: a label is the
// channel's rank in (from, to) order, so a wire form listing channels
// out of order, twice, or under another label does not decode.
func TestVCAssignmentJSONRejectsNonCanonicalLabels(t *testing.T) {
	for name, wire := range map[string]string{
		"duplicate": `{"numVCs":2,"singleVC":false,"labels":[{"from":1,"to":2,"label":0},{"from":1,"to":2,"label":1}]}`,
		"unsorted":  `{"numVCs":2,"singleVC":false,"labels":[{"from":2,"to":1,"label":0},{"from":1,"to":2,"label":1}]}`,
		"relabel":   `{"numVCs":2,"singleVC":false,"labels":[{"from":1,"to":2,"label":1},{"from":2,"to":1,"label":0}]}`,
	} {
		var dec VCAssignment
		if err := json.Unmarshal([]byte(wire), &dec); err == nil {
			t.Errorf("%s labels decoded", name)
		}
	}
	var dec VCAssignment
	canonical := `{"numVCs":2,"singleVC":false,"labels":[{"from":1,"to":2,"label":0},{"from":2,"to":1,"label":1}]}`
	if err := json.Unmarshal([]byte(canonical), &dec); err != nil {
		t.Fatal(err)
	}
	if got := dec.VCForHop([]graph.NodeID{2, 1, 2}, 1); got != 1 {
		t.Fatalf("VC after the 2->1 -> 1->2 descent = %d, want 1", got)
	}
}
