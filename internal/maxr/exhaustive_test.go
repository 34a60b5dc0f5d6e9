package maxr

import (
	"context"
	"testing"

	"imc/internal/community"
	"imc/internal/gen"
	"imc/internal/ric"
)

// smallRandomPool keeps the candidate set enumerable.
func smallRandomPool(t *testing.T, seed uint64) *ric.Pool {
	t.Helper()
	g, err := gen.RandomDirected(12, 24, 0.4, seed)
	if err != nil {
		t.Fatal(err)
	}
	part, err := community.Random(12, 4, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	part.SetBoundedThresholds(2)
	part.SetPopulationBenefits()
	pool, err := ric.NewPool(g, part, ric.PoolOptions{Seed: seed + 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.GenerateCtx(context.Background(), 400); err != nil {
		t.Fatal(err)
	}
	return pool
}

func TestExhaustiveOptimumDominatesSolvers(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		pool := smallRandomPool(t, seed*11+1)
		opt, err := ExhaustiveOptimum(pool, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Solver{UBG{}, MAF{}, BT{}, MB{}} {
			res, err := s.SolveCtx(context.Background(), pool, 3)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if res.Coverage > opt.Coverage {
				t.Fatalf("seed %d: %s coverage %d beats claimed optimum %d",
					seed, s.Name(), res.Coverage, opt.Coverage)
			}
		}
	}
}

// TestEmpiricalRatiosBeatTheory verifies each solver meets its paper
// guarantee against the exact pool optimum — with generous slack the
// guarantees are far from tight in practice, so this acts as a strong
// regression tripwire.
func TestEmpiricalRatiosBeatTheory(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		pool := smallRandomPool(t, seed*7+3)
		k := 4
		opt, err := ExhaustiveOptimum(pool, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if opt.Coverage == 0 {
			continue
		}
		for _, s := range []Solver{UBG{}, MAF{}, MB{}, BT{}} {
			res, err := s.SolveCtx(context.Background(), pool, k)
			if err != nil {
				t.Fatal(err)
			}
			alpha := s.Guarantee(pool, k)
			got := float64(res.Coverage)
			want := alpha * float64(opt.Coverage)
			// UBG's nominal 1−1/e is data-dependent (sandwich); scale it
			// by the realized ratio as Theorem 2 prescribes.
			if s.Name() == "UBG" {
				want *= sandwichRatio(pool, res.Seeds)
			}
			if got < want-1e-9 {
				t.Fatalf("seed %d: %s coverage %v below guarantee %v (α=%g, OPT=%d)",
					seed, s.Name(), got, want, alpha, opt.Coverage)
			}
		}
	}
}

func TestExhaustiveOptimumBounds(t *testing.T) {
	pool := smallRandomPool(t, 99)
	if _, err := ExhaustiveOptimum(pool, 2, 1); err == nil {
		t.Fatal("want candidate-bound error")
	}
	if _, err := ExhaustiveOptimum(pool, 0, 0); err == nil {
		t.Fatal("want k error")
	}
	// k above candidate count clamps instead of failing.
	res, err := ExhaustiveOptimum(pool, 11, 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) == 0 {
		t.Fatal("clamped enumeration returned nothing")
	}
}
