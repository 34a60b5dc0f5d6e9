package diffusion

import (
	"context"
	"math"
	"testing"

	"imc/internal/community"
	"imc/internal/gen"
	"imc/internal/graph"
	"imc/internal/xrand"
)

func pathGraph(t *testing.T, n int, w float64) *graph.Graph {
	t.Helper()
	g, err := gen.PathGraph(n, w)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestICDeterministicEdges(t *testing.T) {
	g := pathGraph(t, 5, 1) // weight-1 edges always fire
	sim := NewSimulator(g, IC)
	active, count := sim.Run([]graph.NodeID{0}, xrand.New(1))
	if count != 5 {
		t.Fatalf("weight-1 path activated %d/5", count)
	}
	for i := 0; i < 5; i++ {
		if !active[i] {
			t.Fatalf("node %d inactive", i)
		}
	}
}

func TestICZeroWeightNeverSpreads(t *testing.T) {
	g := pathGraph(t, 5, 0)
	sim := NewSimulator(g, IC)
	_, count := sim.Run([]graph.NodeID{0}, xrand.New(1))
	if count != 1 {
		t.Fatalf("zero-weight path activated %d, want 1", count)
	}
}

func TestICSpreadMatchesClosedForm(t *testing.T) {
	// On a 2-node path with weight p, E[spread({0})] = 1 + p.
	const p = 0.35
	g := pathGraph(t, 2, p)
	got, err := EstimateSpreadCtx(context.Background(), g, []graph.NodeID{0}, MCOptions{Iterations: 200000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-(1+p)) > 0.01 {
		t.Fatalf("spread = %g, want %g", got, 1+p)
	}
}

func TestInvalidAndDuplicateSeeds(t *testing.T) {
	g := pathGraph(t, 3, 1)
	sim := NewSimulator(g, IC)
	_, count := sim.Run([]graph.NodeID{-1, 0, 0, 99}, xrand.New(1))
	if count != 3 {
		t.Fatalf("count = %d, want 3 (dups and out-of-range ignored)", count)
	}
}

func TestLTFullWeightChainActivates(t *testing.T) {
	// Each node's single in-edge has weight 1 ≥ any threshold draw, so
	// LT activates the whole path.
	g := pathGraph(t, 6, 1)
	sim := NewSimulator(g, LT)
	_, count := sim.Run([]graph.NodeID{0}, xrand.New(5))
	if count != 6 {
		t.Fatalf("LT weight-1 path activated %d/6", count)
	}
}

func TestLTSpreadBetweenICBounds(t *testing.T) {
	// Sanity: LT spread on a random graph lies in [k, n].
	g, err := gen.RandomDirected(30, 120, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EstimateSpreadCtx(context.Background(), g, []graph.NodeID{0, 1}, MCOptions{Iterations: 2000, Seed: 11, Model: LT})
	if err != nil {
		t.Fatal(err)
	}
	if got < 2 || got > 30 {
		t.Fatalf("LT spread %g out of [2, 30]", got)
	}
}

func TestCommunityBenefitScoring(t *testing.T) {
	part, err := community.New(6, [][]graph.NodeID{{0, 1, 2}, {3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	part.SetBoundedThresholds(2)
	part.SetPopulationBenefits()
	active := []bool{true, true, false, true, false, false}
	if got := CommunityBenefit(part, active); got != 3 {
		t.Fatalf("benefit = %g, want 3 (first community only)", got)
	}
	if got := FractionalBenefit(part, active); math.Abs(got-(3+3*0.5)) > 1e-12 {
		t.Fatalf("fractional benefit = %g, want 4.5", got)
	}
	// Fractional is capped at the full benefit.
	allActive := []bool{true, true, true, true, true, true}
	if got := FractionalBenefit(part, allActive); got != 6 {
		t.Fatalf("fractional benefit = %g, want 6", got)
	}
}

func TestEstimateBenefitSeededCommunity(t *testing.T) {
	// Seeding an entire community guarantees its benefit.
	g := pathGraph(t, 6, 0)
	part, err := community.New(6, [][]graph.NodeID{{0, 1, 2}, {3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	part.SetBoundedThresholds(2)
	part.SetPopulationBenefits()
	got, err := EstimateBenefitCtx(context.Background(), g, part, []graph.NodeID{0, 1}, MCOptions{Iterations: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("benefit = %g, want exactly 3 (no diffusion, community 0 seeded)", got)
	}
}

func TestMCOptionsValidation(t *testing.T) {
	g := pathGraph(t, 3, 1)
	if _, err := EstimateSpreadCtx(context.Background(), g, []graph.NodeID{0}, MCOptions{Iterations: 0}); err == nil {
		t.Fatal("want iterations error")
	}
}

func TestMCDeterministicAcrossWorkers(t *testing.T) {
	g, err := gen.RandomDirected(40, 150, 0.4, 13)
	if err != nil {
		t.Fatal(err)
	}
	a, err := EstimateSpreadCtx(context.Background(), g, []graph.NodeID{0, 5}, MCOptions{Iterations: 999, Seed: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateSpreadCtx(context.Background(), g, []graph.NodeID{0, 5}, MCOptions{Iterations: 999, Seed: 4, Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("MC estimate depends on worker count: %g vs %g", a, b)
	}
}

func TestTraceDeterministicPath(t *testing.T) {
	g := pathGraph(t, 4, 1)
	rounds := Trace(g, []graph.NodeID{0}, xrand.New(1))
	if len(rounds) != 4 {
		t.Fatalf("rounds = %d, want 4 (one hop per round)", len(rounds))
	}
	for i, r := range rounds {
		if r.Round != i || len(r.Activated) != 1 || r.Activated[0] != graph.NodeID(i) {
			t.Fatalf("round %d malformed: %+v", i, r)
		}
	}
}

func TestTraceCountsMatchSimulator(t *testing.T) {
	g, err := gen.RandomDirected(40, 150, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []graph.NodeID{0, 7}
	rounds := Trace(g, seeds, xrand.New(9))
	traced := 0
	seen := make(map[graph.NodeID]bool)
	for _, r := range rounds {
		for _, v := range r.Activated {
			if seen[v] {
				t.Fatalf("node %d activated twice", v)
			}
			seen[v] = true
			traced++
		}
	}
	if traced < len(seeds) || traced > 40 {
		t.Fatalf("traced %d activations", traced)
	}
	// Round 0 is exactly the distinct seeds.
	if len(rounds) == 0 || len(rounds[0].Activated) != 2 {
		t.Fatalf("round 0 = %+v", rounds[0])
	}
}

func TestModelString(t *testing.T) {
	if IC.String() != "IC" || LT.String() != "LT" {
		t.Fatal("Model.String mismatch")
	}
	if Model(9).String() != "Model(9)" {
		t.Fatal("unknown model string")
	}
}
