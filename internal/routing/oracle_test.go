package routing

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/randgraph"
	"repro/internal/topology"
)

// oracleFamily is one architecture plus the way its table is made: a
// builder run through both pipelines (Build, BuildShortestPath) or a
// fixed table (XY, YX, the clockwise ring).
type oracleFamily struct {
	name  string
	arch  *topology.Architecture
	build func(*topology.Architecture) (Table, error) // production builder
	ref   func(*topology.Architecture) (Table, error) // its map-walking reference
	table Table                                       // fixed table when build is nil
}

// baArch builds the scale-free architecture the batch planner builds for
// a "n:2:seed" BA spec: a Barabási–Albert graph's links, unit lengths.
func baArch(t *testing.T, n int, seed int64) *topology.Architecture {
	t.Helper()
	g, err := randgraph.BarabasiAlbert(n, 2, 8, 64, seed)
	if err != nil {
		t.Fatal(err)
	}
	arch := topology.New(g.Name(), g.Nodes(), nil)
	for _, e := range g.Edges() {
		if err := arch.AddLink(e.From, e.To, 0); err != nil {
			t.Fatal(err)
		}
	}
	return arch
}

// clockwiseRing routes every pair of an n-ring clockwise only: a cyclic
// channel dependency graph that needs the dateline's second VC.
func clockwiseRing(t *testing.T, n int) (*topology.Architecture, Table) {
	t.Helper()
	arch := ringArch(t, n)
	table := Table{}
	for i := 1; i <= n; i++ {
		for d := 1; d <= n; d++ {
			if i != d {
				if err := table.set(graph.NodeID(i), graph.NodeID(d), graph.NodeID(i%n+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return arch, table
}

func oracleFamilies(t *testing.T) []oracleFamily {
	t.Helper()
	var fams []oracleFamily
	for _, k := range []int{4, 8} {
		mesh := meshArch(t, k, k)
		xy, err := XY(k, k)
		if err != nil {
			t.Fatal(err)
		}
		yx, err := YX(k, k)
		if err != nil {
			t.Fatal(err)
		}
		fams = append(fams,
			oracleFamily{name: fmt.Sprintf("mesh%dx%d-xy", k, k), arch: mesh, table: xy},
			oracleFamily{name: fmt.Sprintf("mesh%dx%d-yx", k, k), arch: mesh, table: yx},
			oracleFamily{name: fmt.Sprintf("mesh%dx%d-sp", k, k), arch: mesh,
				build: BuildShortestPath,
				ref: func(a *topology.Architecture) (Table, error) {
					return referenceShortestPathTable(t, a), nil
				}},
		)
	}
	ring, cw := clockwiseRing(t, 6)
	fams = append(fams, oracleFamily{name: "ring6-clockwise", arch: ring, table: cw})
	fams = append(fams, oracleFamily{name: "chordring", arch: equivalenceArchs(t)["chordring"].arch, build: Build, ref: refBuild})
	aes, _ := customAESArch(t)
	fams = append(fams, oracleFamily{name: "aes-custom", arch: aes, build: Build, ref: refBuild})
	sizes := []int{64, 300, 1000}
	if !testing.Short() && !raceEnabled {
		sizes = append(sizes, 2048)
	}
	for _, n := range sizes {
		fams = append(fams, oracleFamily{name: fmt.Sprintf("ba%d", n), arch: baArch(t, n, 5), build: Build, ref: refBuild})
	}
	return fams
}

// TestDenseCompileMatchesMapOracle runs every family through the
// index-space pipeline and the map-walking reference and requires the
// same table, validity, hop average, deadlock verdict, VC count, VC on
// every hop of every route, channel dependency graph and compiled
// fingerprint.
func TestDenseCompileMatchesMapOracle(t *testing.T) {
	for _, f := range oracleFamilies(t) {
		t.Run(f.name, func(t *testing.T) {
			arch, table := f.arch, f.table
			if f.build != nil {
				got, err := f.build(arch)
				if err != nil {
					t.Fatal(err)
				}
				want, err := f.ref(arch)
				if err != nil {
					t.Fatal(err)
				}
				if !tablesEqual(got, want) {
					t.Fatal("table differs from the reference build")
				}
				table = got
			}
			if err := Validate(table, arch); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if err := refValidate(table, arch); err != nil {
				t.Fatalf("reference Validate: %v", err)
			}
			hops, err := AverageHops(table, arch)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := refAverageHops(table, arch); hops != want {
				t.Fatalf("AverageHops %v, reference %v", hops, want)
			}

			vc, err := AssignVirtualChannels(table, arch, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := refAssignVirtualChannels(table, arch, nil)
			if err != nil {
				t.Fatal(err)
			}
			if vc.NumVCs != ref.NumVCs || vc.singleVC != ref.singleVC {
				t.Fatalf("NumVCs %d single %v, reference %d single %v", vc.NumVCs, vc.singleVC, ref.NumVCs, ref.singleVC)
			}
			free, err := DeadlockFree(table, arch, nil)
			if err != nil {
				t.Fatal(err)
			}
			if free != ref.singleVC {
				t.Fatalf("DeadlockFree %v, reference %v", free, ref.singleVC)
			}
			if f.name == "ring6-clockwise" && (free || vc.NumVCs != 2) {
				t.Fatalf("clockwise ring: free %v NumVCs %d, want a cycle and 2 VCs", free, vc.NumVCs)
			}
			// Labels are edge ids, so the dateline labels must be the
			// reference's sorted-channel ranks channel for channel.
			frz := arch.Graph().Freeze()
			for e := 0; e < frz.EdgeCount(); e++ {
				c := frz.EdgeAt(e)
				if got, want := vc.label(c.From, c.To), ref.labels[Channel{From: c.From, To: c.To}]; int(got) != want {
					t.Fatalf("label of %d->%d = %d, reference %d", c.From, c.To, got, want)
				}
			}
			if len(ref.labels) != frz.EdgeCount() {
				t.Fatalf("reference labels %d channels, architecture has %d", len(ref.labels), frz.EdgeCount())
			}
			// Sample every route's every hop on all but the largest
			// families, every 7th route there (the per-hop map walk of
			// the reference is quadratic in route length).
			stride := 1
			if frz.NodeCount() > 300 {
				stride = 7
			}
			nodes := arch.Nodes()
			k := 0
			for _, s := range nodes {
				for _, d := range nodes {
					if s == d {
						continue
					}
					if k++; k%stride != 0 {
						continue
					}
					route, err := table.Route(s, d)
					if err != nil {
						t.Fatal(err)
					}
					for hop := 0; hop+1 < len(route); hop++ {
						if got, want := vc.VCForHop(route, hop), ref.vcForHop(route, hop); got != want {
							t.Fatalf("%d->%d hop %d: VC %d, reference %d", s, d, hop, got, want)
						}
					}
				}
			}

			if frz.NodeCount() <= 300 {
				cdg, idx, err := ChannelDependencyGraph(table, arch, nil)
				if err != nil {
					t.Fatal(err)
				}
				rcdg, ridx, err := refChannelDependencyGraph(table, arch, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !graph.Equal(cdg, rcdg) || !reflect.DeepEqual(idx, ridx) {
					t.Fatal("channel dependency graph differs from the reference")
				}
			}

			ct, err := CompileTable(table, arch, vc)
			if err != nil {
				t.Fatal(err)
			}
			rct, err := refCompileAllPairs(table, arch, ref)
			if err != nil {
				t.Fatal(err)
			}
			if ct.Fingerprint() != rct.Fingerprint() {
				t.Fatal("compiled fingerprint differs from the reference")
			}
			if !reflect.DeepEqual(ct.start, rct.start) || !reflect.DeepEqual(ct.nodes, rct.nodes) ||
				!reflect.DeepEqual(ct.vcs, rct.vcs) || !reflect.DeepEqual(ct.outSlot, rct.outSlot) {
				t.Fatal("compiled plan arrays differ from the reference")
			}
		})
	}
}

// TestPairsOracle covers the explicit-pairs paths: a Table over a demand
// subset and a precomputed RouteSet assign the same VCs, verdicts and
// dependency graphs as the reference.
func TestPairsOracle(t *testing.T) {
	arch := baArch(t, 300, 5)
	table, err := Build(arch)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := NewSparseRouter(arch)
	if err != nil {
		t.Fatal(err)
	}
	n := len(arch.Nodes())
	demand := NewPairSet(n)
	for s := 0; s < n; s++ {
		demand.Add(s, (s*7+3)%n)
		demand.Add(s, 0)
	}
	rs, err := sr.Precompute(demand, 2)
	if err != nil {
		t.Fatal(err)
	}
	pairs := demand.NodePairs(sr.Frozen().IDs())
	for name, r := range map[string]Router{"table": table, "routeset": rs} {
		t.Run(name, func(t *testing.T) {
			vc, err := AssignVirtualChannels(r, arch, pairs)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := refAssignVirtualChannels(r, arch, pairs)
			if err != nil {
				t.Fatal(err)
			}
			if vc.NumVCs != ref.NumVCs || vc.singleVC != ref.singleVC {
				t.Fatalf("NumVCs %d single %v, reference %d single %v", vc.NumVCs, vc.singleVC, ref.NumVCs, ref.singleVC)
			}
			for _, pr := range pairs {
				route, err := r.Route(pr[0], pr[1])
				if err != nil {
					t.Fatal(err)
				}
				for hop := 0; hop+1 < len(route); hop++ {
					if got, want := vc.VCForHop(route, hop), ref.vcForHop(route, hop); got != want {
						t.Fatalf("%v hop %d: VC %d, reference %d", route, hop, got, want)
					}
				}
			}
			cdg, idx, err := ChannelDependencyGraph(r, arch, pairs)
			if err != nil {
				t.Fatal(err)
			}
			rcdg, ridx, err := refChannelDependencyGraph(r, arch, pairs)
			if err != nil {
				t.Fatal(err)
			}
			if !graph.Equal(cdg, rcdg) || !reflect.DeepEqual(idx, ridx) {
				t.Fatal("channel dependency graph differs from the reference")
			}
		})
	}
}

// TestOracleErrorParity breaks a valid mesh table three ways and
// requires the index-space pipeline to fail where the reference fails,
// with the same typed errors.
func TestOracleErrorParity(t *testing.T) {
	arch := meshArch(t, 4, 4)
	clone := func() Table {
		base, err := Build(arch)
		if err != nil {
			t.Fatal(err)
		}
		return base
	}

	t.Run("incomplete", func(t *testing.T) {
		table := clone()
		delete(table[6], 11)
		ref := refValidate(table, arch)
		got := Validate(table, arch)
		var ue, rue *UnreachableError
		if !errors.As(got, &ue) || !errors.As(ref, &rue) || *ue != *rue {
			t.Fatalf("Validate %v, reference %v: want the same UnreachableError", got, ref)
		}
		if got.Error() != ref.Error() {
			t.Fatalf("Validate %q, reference %q", got, ref)
		}
		_, aerr := AssignVirtualChannels(table, arch, nil)
		_, rerr := refAssignVirtualChannels(table, arch, nil)
		_, derr := DeadlockFree(table, arch, nil)
		for _, err := range []error{aerr, rerr, derr} {
			if !errors.Is(err, ErrNoRoute) {
				t.Fatalf("incomplete table: %v, want ErrNoRoute", err)
			}
		}
		if aerr.Error() != rerr.Error() {
			t.Fatalf("AssignVirtualChannels %q, reference %q", aerr, rerr)
		}
		_, cerr := CompileTable(table, arch, VCAssignment{NumVCs: 1, singleVC: true})
		_, rcerr := refCompileAllPairs(table, arch, refVCs{NumVCs: 1, singleVC: true})
		if !errors.Is(cerr, ErrNoRoute) || cerr.Error() != rcerr.Error() {
			t.Fatalf("CompileTable %v, reference %v", cerr, rcerr)
		}
	})

	t.Run("loop", func(t *testing.T) {
		// 1 and 2 are mesh neighbors; point each at the other for dst 16.
		table := clone()
		table[1][16], table[2][16] = 2, 1
		ref := refValidate(table, arch)
		got := Validate(table, arch)
		if got == nil || ref == nil || !strings.Contains(got.Error(), "loop detected") || got.Error() != ref.Error() {
			t.Fatalf("Validate %v, reference %v: want the same loop error", got, ref)
		}
		_, aerr := AssignVirtualChannels(table, arch, nil)
		_, rerr := refAssignVirtualChannels(table, arch, nil)
		if aerr == nil || rerr == nil || aerr.Error() != rerr.Error() {
			t.Fatalf("AssignVirtualChannels %v, reference %v", aerr, rerr)
		}
		_, cerr := CompileTable(table, arch, VCAssignment{NumVCs: 1, singleVC: true})
		_, rcerr := refCompileAllPairs(table, arch, refVCs{NumVCs: 1, singleVC: true})
		if cerr == nil || rcerr == nil || cerr.Error() != rcerr.Error() {
			t.Fatalf("CompileTable %v, reference %v", cerr, rcerr)
		}
	})

	t.Run("missing-link", func(t *testing.T) {
		// 1 -> 6 is a mesh diagonal: no such link.
		table := clone()
		table[1][16] = 6
		if ref := refValidate(table, arch); ref == nil {
			t.Fatal("reference Validate accepted a route over a missing link")
		}
		if err := Validate(table, arch); !errors.Is(err, ErrNoRoute) {
			t.Fatalf("Validate: %v, want ErrNoRoute", err)
		}
		_, cerr := CompileTable(table, arch, VCAssignment{NumVCs: 1, singleVC: true})
		_, rcerr := refCompileAllPairs(table, arch, refVCs{NumVCs: 1, singleVC: true})
		if !errors.Is(cerr, ErrNoRoute) || !errors.Is(rcerr, ErrNoRoute) {
			t.Fatalf("CompileTable %v, reference %v: want ErrNoRoute from both", cerr, rcerr)
		}
		// Labels are the architecture's edge ids, so a channel the
		// architecture lacks has none: VC assignment rejects the route
		// instead of ranking a phantom channel as the reference did.
		if _, err := AssignVirtualChannels(table, arch, nil); !errors.Is(err, ErrNoRoute) {
			t.Fatalf("AssignVirtualChannels: %v, want ErrNoRoute", err)
		}
	})

	t.Run("empty", func(t *testing.T) {
		if _, err := DeadlockFree(Table{}, arch, nil); err == nil {
			t.Fatal("DeadlockFree accepted Table{}")
		}
		if _, err := refDeadlockFree(Table{}, arch, nil); err == nil {
			t.Fatal("reference DeadlockFree accepted Table{}")
		}
		if _, err := AssignVirtualChannels(Table{}, arch, nil); err == nil {
			t.Fatal("AssignVirtualChannels accepted Table{}")
		}
		if _, err := refAssignVirtualChannels(Table{}, arch, nil); err == nil {
			t.Fatal("reference AssignVirtualChannels accepted Table{}")
		}
	})
}
