package maxr

import (
	"context"
	"testing"

	"imc/internal/graph"
)

func TestLocalSearchNeverRegresses(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		pool := randomPool(t, 300+seed)
		res, err := MAF{}.SolveCtx(context.Background(), pool, 4)
		if err != nil {
			t.Fatal(err)
		}
		refined, cov := LocalSearch(pool, res.Seeds, 0)
		if cov < res.Coverage {
			t.Fatalf("seed %d: local search regressed %d -> %d", seed, res.Coverage, cov)
		}
		if cov != pool.CoverageCount(refined) {
			t.Fatalf("reported coverage %d inconsistent with %d", cov, pool.CoverageCount(refined))
		}
		if len(refined) != len(res.Seeds) {
			t.Fatalf("swap changed set size: %d -> %d", len(res.Seeds), len(refined))
		}
		seen := map[graph.NodeID]bool{}
		for _, v := range refined {
			if seen[v] {
				t.Fatalf("duplicate seed after refinement: %v", refined)
			}
			seen[v] = true
		}
	}
}

func TestLocalSearchEscapesBadStart(t *testing.T) {
	// Start from deliberately useless seeds on the isolated-pairs pool:
	// the optimal 2-set {0,1} is one swap-pair away.
	pool := pairPool(t, 1000)
	start := []graph.NodeID{0, 2} // covers neither community fully
	if pool.CoverageCount(start) != 0 {
		t.Fatal("start unexpectedly covers something")
	}
	refined, cov := LocalSearch(pool, start, 0)
	if cov == 0 {
		t.Fatalf("local search failed to escape zero coverage: %v", refined)
	}
	got := seedSet(refined)
	if !(got[0] && got[1]) && !(got[2] && got[3]) {
		t.Fatalf("refined set %v is not a community pair", refined)
	}
}

func TestLocalSearchEmptyInput(t *testing.T) {
	pool := pairPool(t, 100)
	refined, cov := LocalSearch(pool, nil, 0)
	if len(refined) != 0 || cov != 0 {
		t.Fatalf("empty input mangled: %v %d", refined, cov)
	}
}

func TestRefinedSolverWrapper(t *testing.T) {
	pool := randomPool(t, 404)
	base, err := MAF{}.SolveCtx(context.Background(), pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := Refined{Base: MAF{}}
	if wrapped.Name() != "MAF+LS" {
		t.Fatalf("name %q", wrapped.Name())
	}
	res, err := wrapped.SolveCtx(context.Background(), pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage < base.Coverage {
		t.Fatalf("refined %d below base %d", res.Coverage, base.Coverage)
	}
	if g := wrapped.Guarantee(pool, 4); g != (MAF{}).Guarantee(pool, 4) {
		t.Fatalf("guarantee changed: %g", g)
	}
}
