package exact

import (
	"context"
	"math"
	"testing"

	"imc/internal/community"
	"imc/internal/core"
	"imc/internal/diffusion"
	"imc/internal/gen"
	"imc/internal/graph"
	"imc/internal/maxr"
	"imc/internal/ric"
)

func tinyInstance(t *testing.T, seed uint64) (*graph.Graph, *community.Partition) {
	t.Helper()
	g, err := gen.RandomDirected(8, 14, 0.6, seed)
	if err != nil {
		t.Fatal(err)
	}
	part, err := community.New(8, [][]graph.NodeID{{0, 1, 2, 3}, {4, 5, 6, 7}})
	if err != nil {
		t.Fatal(err)
	}
	part.SetBoundedThresholds(2)
	part.SetPopulationBenefits()
	return g, part
}

func TestBenefitHandComputable(t *testing.T) {
	// a -> x with weight p; community {x} threshold 1 benefit 1:
	// c({a}) = p exactly.
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, 0.3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	part, err := community.New(2, [][]graph.NodeID{{1}})
	if err != nil {
		t.Fatal(err)
	}
	part.SetUniformBenefits(1)
	got, err := Benefit(g, part, []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("c({a}) = %g, want 0.3", got)
	}
	// Seeding the member itself yields benefit 1 regardless of edges.
	got, err = Benefit(g, part, []graph.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("c({x}) = %g, want 1", got)
	}
}

func TestBenefitMatchesMonteCarlo(t *testing.T) {
	g, part := tinyInstance(t, 5)
	seeds := []graph.NodeID{0, 4}
	want, err := Benefit(g, part, seeds)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := diffusion.EstimateBenefitCtx(context.Background(), g, part, seeds, diffusion.MCOptions{Iterations: 200000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(want-mc) > 0.02+0.02*want {
		t.Fatalf("exact %g vs Monte-Carlo %g", want, mc)
	}
}

func TestSpreadMatchesClosedForm(t *testing.T) {
	g, err := gen.PathGraph(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// E[spread({0})] = 1 + 0.5 + 0.25 = 1.75.
	got, err := Spread(g, []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.75) > 1e-12 {
		t.Fatalf("spread = %g, want 1.75", got)
	}
}

func TestEnumerationBoundEnforced(t *testing.T) {
	g, err := gen.RandomDirected(10, MaxEdges+1, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	part, err := community.Random(10, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Benefit(g, part, []graph.NodeID{0}); err == nil {
		t.Fatal("want edge-bound error")
	}
	if _, err := Spread(g, []graph.NodeID{0}); err == nil {
		t.Fatal("want edge-bound error")
	}
}

func TestOptimumBudgetValidation(t *testing.T) {
	g, part := tinyInstance(t, 1)
	if _, _, err := Optimum(g, part, 0); err == nil {
		t.Fatal("want k error")
	}
	if _, _, err := Optimum(g, part, 99); err == nil {
		t.Fatal("want k error")
	}
}

func TestOptimumDominatesEverySet(t *testing.T) {
	g, part := tinyInstance(t, 7)
	seeds, value, err := Optimum(g, part, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 2 {
		t.Fatalf("optimum seeds %v", seeds)
	}
	// Spot-check against a handful of explicit sets.
	for _, s := range [][]graph.NodeID{{0, 1}, {0, 4}, {3, 7}, {2, 5}} {
		v, err := Benefit(g, part, s)
		if err != nil {
			t.Fatal(err)
		}
		if v > value+1e-12 {
			t.Fatalf("set %v scores %g above claimed optimum %g", s, v, value)
		}
	}
}

// TestSolversNearOptimalOnTinyInstances is the end-to-end quality
// certificate: on enumerable instances, IMCAF+UBG must come close to
// the true optimum (sampling noise allowed).
func TestSolversNearOptimalOnTinyInstances(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		g, part := tinyInstance(t, seed*13)
		_, opt, err := Optimum(g, part, 2)
		if err != nil {
			t.Fatal(err)
		}
		if opt <= 0 {
			continue
		}
		sol, err := core.SolveCtx(context.Background(), g, part, maxr.UBG{}, core.Options{
			K: 2, Eps: 0.2, Delta: 0.2, Seed: seed, MaxSamples: 1 << 14,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Benefit(g, part, sol.Seeds)
		if err != nil {
			t.Fatal(err)
		}
		if got < 0.75*opt {
			t.Fatalf("seed %d: UBG exact value %g below 75%% of optimum %g", seed, got, opt)
		}
	}
}

// TestBenefitLTHandComputable validates the LT enumerator on a
// two-node chain: under LT, a -> x with weight p activates x with
// probability exactly p.
func TestBenefitLTHandComputable(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, 0.3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	part, err := community.New(2, [][]graph.NodeID{{1}})
	if err != nil {
		t.Fatal(err)
	}
	part.SetUniformBenefits(1)
	got, err := BenefitLT(g, part, []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("LT c({a}) = %g, want 0.3", got)
	}
}

// TestLTPipelineMatchesExact cross-validates the three LT engines —
// exact enumeration, forward Monte Carlo, and RIC-LT sampling — on one
// tiny instance.
func TestLTPipelineMatchesExact(t *testing.T) {
	g, err := gen.RandomDirected(6, 8, 0.5, 77)
	if err != nil {
		t.Fatal(err)
	}
	part, err := community.New(6, [][]graph.NodeID{{0, 1, 2}, {3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	part.SetBoundedThresholds(2)
	part.SetPopulationBenefits()
	seeds := []graph.NodeID{0, 3}

	want, err := BenefitLT(g, part, seeds)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := diffusion.EstimateBenefitCtx(context.Background(), g, part, seeds, diffusion.MCOptions{
		Iterations: 100000, Seed: 5, Model: diffusion.LT,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mc-want) > 0.03+0.03*want {
		t.Fatalf("forward LT MC %g vs exact %g", mc, want)
	}
	pool, err := ric.NewPool(g, part, ric.PoolOptions{Model: diffusion.LT, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.GenerateCtx(context.Background(), 60000); err != nil {
		t.Fatal(err)
	}
	if got := pool.CHat(seeds); math.Abs(got-want) > 0.05+0.05*want {
		t.Fatalf("RIC-LT ĉ %g vs exact %g", got, want)
	}
}

// TestTheorem7GuaranteeHoldsEmpirically validates IMCAF's headline
// guarantee on enumerable instances: across independent runs,
// c(S) ≥ α(1−ε)·OPT must hold in at least a 1−δ fraction (here: with
// δ=0.3, at most ~1/5 failures tolerated across 10 runs, allowing for
// small-sample slack).
func TestTheorem7GuaranteeHoldsEmpirically(t *testing.T) {
	g, part := tinyInstance(t, 31)
	_, opt, err := Optimum(g, part, 2)
	if err != nil {
		t.Fatal(err)
	}
	if opt <= 0 {
		t.Skip("degenerate instance")
	}
	const (
		eps   = 0.3
		delta = 0.3
		runs  = 10
	)
	failures := 0
	for run := uint64(0); run < runs; run++ {
		sol, err := core.SolveCtx(context.Background(), g, part, maxr.UBG{}, core.Options{
			K: 2, Eps: eps, Delta: delta, Seed: run*97 + 1, MaxSamples: 1 << 14,
		})
		if err != nil {
			t.Fatal(err)
		}
		val, err := Benefit(g, part, sol.Seeds)
		if err != nil {
			t.Fatal(err)
		}
		// UBG's effective α is its data-dependent sandwich factor; use
		// the very conservative floor α(1−ε) with α = sandwich·(1−1/e),
		// bounded below by the MB-style √ guarantee. For a strong yet
		// fair check we require val ≥ (1−1/e)(1−ε)·OPT·ratio with the
		// observed sandwich ratio.
		bound := (1 - 1/math.E) * (1 - eps) * sol.SandwichRatio * opt
		if val < bound-1e-9 {
			failures++
		}
	}
	if failures > 2 {
		t.Fatalf("guarantee violated in %d/%d runs (δ=%.1f)", failures, runs, delta)
	}
}

// TestRICPoolUnbiasedAgainstExact cross-checks the RIC estimator once
// more, this time through the exact package's independent enumerator.
func TestRICPoolUnbiasedAgainstExact(t *testing.T) {
	g, part := tinyInstance(t, 21)
	sol, err := core.SolveFixedCtx(context.Background(), g, part, maxr.UBG{}, 2, 40000, core.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Benefit(g, part, sol.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.CHat-want) > 0.05+0.05*want {
		t.Fatalf("pool ĉ = %g vs exact %g", sol.CHat, want)
	}
}
