package core

import (
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/primitives"
)

// The matching step works on dense per-worker scratch and builds maps only
// for the candidates that survive the match cap: the serial AES solve makes
// about 15k allocations. It scores about 190k raw VF2 results, so giving
// each result its own Mapping or edge list would cross the ceiling.
func TestSolveAESAllocationCeiling(t *testing.T) {
	p := Problem{
		ACG:     aesACG(8, 1),
		Library: primitives.MustDefault(),
		Energy:  energy.Tech180,
		Options: Options{Mode: CostLinks, Parallelism: 1, Timeout: 60 * time.Second},
	}
	var cost float64
	allocs := testing.AllocsPerRun(1, func() {
		res, err := Solve(p)
		if err != nil || res.Best == nil {
			t.Fatalf("solve: %v", err)
		}
		cost = res.Best.Cost
	})
	t.Logf("AES links-mode solve: %.0f allocations", allocs)
	if cost != 28 {
		t.Fatalf("AES cost %g, want 28", cost)
	}
	const ceiling = 150000
	if allocs > ceiling {
		t.Fatalf("AES solve made %.0f allocations, ceiling %d", allocs, ceiling)
	}
}
