package ric

import (
	"context"
	"math"
	"testing"

	"imc/internal/community"
	"imc/internal/diffusion"
	"imc/internal/graph"
)

// TestNaiveSamplingIsBiased demonstrates why Alg. 1 shares edge states
// across a sample: on a bottleneck instance the correct estimator gives
// c({a}) = 0.5 while per-member independent worlds give ≈ 0.25.
//
// Topology: a --0.5--> b, b --1--> x1, b --1--> x2, community {x1, x2}
// with threshold 2. Reaching both members requires the SAME a→b edge,
// so their activations are perfectly correlated — which the naive
// sampler breaks.
func TestNaiveSamplingIsBiased(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 0.5) // a -> b (the shared bottleneck)
	b.AddEdge(1, 2, 1)   // b -> x1
	b.AddEdge(1, 3, 1)   // b -> x2
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	part, err := community.New(4, [][]graph.NodeID{{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	part.SetBoundedThresholds(2)
	part.SetUniformBenefits(1)
	seeds := []graph.NodeID{0}

	// Correct estimator.
	pool, err := NewPool(g, part, PoolOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.GenerateCtx(context.Background(), 40000); err != nil {
		t.Fatal(err)
	}
	correct := pool.CHat(seeds)
	if math.Abs(correct-0.5) > 0.02 {
		t.Fatalf("shared-state estimate %g, want ≈0.5", correct)
	}

	// Naive estimator.
	gen, err := NewGenerator(g, part, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	naive := NaiveCHat(g, gen, seeds, 40000, 7)
	if math.Abs(naive-0.25) > 0.02 {
		t.Fatalf("naive estimate %g, want ≈0.25 (the bias)", naive)
	}
	if naive >= correct-0.1 {
		t.Fatalf("naive %g not clearly below correct %g", naive, correct)
	}
}

// TestNaiveAgreesWhenNoSharing checks the two samplers coincide when no
// edge serves two members (each member has its own disjoint in-path).
func TestNaiveAgreesWhenNoSharing(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 2, 0.5) // a -> x1
	b.AddEdge(1, 3, 0.5) // c -> x2
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	part, err := community.New(4, [][]graph.NodeID{{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	part.SetBoundedThresholds(2)
	part.SetUniformBenefits(1)
	seeds := []graph.NodeID{0, 1}

	pool, err := NewPool(g, part, PoolOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.GenerateCtx(context.Background(), 40000); err != nil {
		t.Fatal(err)
	}
	correct := pool.CHat(seeds) // = 0.25 exactly in expectation
	gen, err := NewGenerator(g, part, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	naive := NaiveCHat(g, gen, seeds, 40000, 9)
	if math.Abs(correct-naive) > 0.02 {
		t.Fatalf("disjoint paths: shared %g vs naive %g should agree", correct, naive)
	}
}
