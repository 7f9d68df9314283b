package iso

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/primitives"
)

// orderDigest hashes every mapping FindAllFrozen returns, in order, for
// every library pattern against seeded random targets, unmasked and under
// a random edge mask.
func orderDigest(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	lib := primitives.MustDefault()
	for seed := int64(0); seed < 6; seed++ {
		ft := randomTarget(9, 0.35, seed).Freeze()
		rng := rand.New(rand.NewSource(seed + 100))
		mask := graph.FullEdgeMask(ft.EdgeCount())
		for e := 0; e < ft.EdgeCount(); e++ {
			if rng.Float64() < 0.3 {
				mask.Clear(e)
			}
		}
		for _, prim := range lib.Primitives() {
			for _, m := range []graph.EdgeMask{nil, mask} {
				ms, err := FindAllFrozen(prim.Rep.Freeze(), ft, m, Options{})
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%d %s %d:", seed, prim.Name, len(ms))
				for _, mp := range ms {
					fmt.Fprint(h, mp.Pairs())
				}
				fmt.Fprintln(h)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// The enumeration order is part of the solver's determinism contract (the
// first cheapest mapping of each covered edge set wins), so it is pinned:
// the digest was recorded from the search before it switched to dense
// result buffers and reusable state.
func TestFindAllFrozenOrderPinned(t *testing.T) {
	const want = "916af1767352f987b4c99d521f5985c172ad49002d536273f5f7a0ed02b1bc5d"
	if got := orderDigest(t); got != want {
		t.Fatalf("enumeration digest %s, want %s", got, want)
	}
}

// One Matcher reused across patterns, targets, masks and limits must
// return exactly what a fresh FindAllFrozen returns for each query: no
// state may leak from one query into the next.
func TestMatcherReuseMatchesFresh(t *testing.T) {
	lib := primitives.MustDefault()
	var m Matcher
	for seed := int64(0); seed < 8; seed++ {
		// Alternate target sizes so buffers both grow and shrink.
		ft := randomTarget(6+int(seed%3)*3, 0.35, seed).Freeze()
		rng := rand.New(rand.NewSource(seed))
		mask := graph.FullEdgeMask(ft.EdgeCount())
		for e := 0; e < ft.EdgeCount(); e++ {
			if rng.Float64() < 0.25 {
				mask.Clear(e)
			}
		}
		for _, prim := range lib.Primitives() {
			pat := prim.Rep.Freeze()
			for _, q := range []struct {
				mask  graph.EdgeMask
				limit int
			}{{nil, 0}, {mask, 0}, {mask, 3}, {nil, 1}} {
				opts := Options{Limit: q.limit}
				want, werr := FindAllFrozen(pat, ft, q.mask, opts)
				flat, gerr := m.FindAll(pat, ft, q.mask, opts)
				if werr != gerr {
					t.Fatalf("seed %d %s: err %v vs %v", seed, prim.Name, gerr, werr)
				}
				pn := pat.NodeCount()
				if len(flat) != len(want)*pn {
					t.Fatalf("seed %d %s limit %d: %d dense entries for %d mappings",
						seed, prim.Name, q.limit, len(flat), len(want))
				}
				for r, mp := range want {
					for pi, ti := range flat[r*pn : (r+1)*pn] {
						if mp[pat.IDOf(pi)] != ft.IDOf(int(ti)) {
							t.Fatalf("seed %d %s: mapping %d differs at pattern vertex %d",
								seed, prim.Name, r, pat.IDOf(pi))
						}
					}
				}
			}
		}
	}
}
