package ric

import (
	"bytes"
	"context"
	"testing"

	"imc/internal/diffusion"
	"imc/internal/graph"
)

// donorOf builds a donor from pool's samples the way the pool cache
// does: Save, then ReadDonor.
func donorOf(t testing.TB, pool *Pool) *Donor {
	t.Helper()
	var snap bytes.Buffer
	if err := pool.Save(&snap); err != nil {
		t.Fatal(err)
	}
	donor, err := ReadDonor(pool.g, pool.part, PoolOptions{Model: pool.model, Seed: pool.seed}, &snap)
	if err != nil {
		t.Fatal(err)
	}
	return donor
}

// TestDonorExtendMatchesGeneration is the determinism pin behind the
// pool cache: over the same (graph, weights, partition, model, seed),
// generating 2Θ samples from scratch and loading a cached Θ-sample
// snapshot then doubling must produce byte-identical pools. Sample i is
// always drawn from PRNG stream i, so where a sample comes from (donor
// adoption vs generation) can never change what it is.
func TestDonorExtendMatchesGeneration(t *testing.T) {
	g, part := smallInstance(t)
	const theta, seed = 200, 21
	cold := buildPool(t, g, part, 2*theta, seed)

	// The "cache": a Θ-sample snapshot round-tripped through
	// Save/ReadDonor, exactly as poolcache stores and reloads it.
	donor := donorOf(t, buildPool(t, g, part, theta, seed))

	// The warm path: adopt the cached Θ, generate the second Θ.
	warm, err := NewPool(g, part, PoolOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	adopted, err := donor.ExtendTo(warm, 2*theta)
	if err != nil {
		t.Fatal(err)
	}
	if adopted != theta {
		t.Fatalf("adopted %d samples, want %d", adopted, theta)
	}
	if err := warm.EnsureCtx(context.Background(), 2*theta); err != nil {
		t.Fatal(err)
	}

	var coldBytes, warmBytes bytes.Buffer
	if err := cold.Save(&coldBytes); err != nil {
		t.Fatal(err)
	}
	if err := warm.Save(&warmBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldBytes.Bytes(), warmBytes.Bytes()) {
		t.Fatal("cold 2Θ pool and cached-Θ-then-doubled pool serialize differently")
	}
	for _, seeds := range [][]graph.NodeID{{0}, {1, 4}, {0, 2, 5}} {
		if cold.CHat(seeds) != warm.CHat(seeds) {
			t.Fatalf("ĉ differs for %v", seeds)
		}
		if cold.NuHat(seeds) != warm.NuHat(seeds) {
			t.Fatalf("ν̂ differs for %v", seeds)
		}
	}
}

// TestDonorExtendPartial: a donor smaller than the target supplies what
// it has; EnsureCtx generates the rest; repeated ExtendTo calls during
// a doubling schedule are no-ops once the donor is exhausted.
func TestDonorExtendPartial(t *testing.T) {
	g, part := smallInstance(t)
	donor := donorOf(t, buildPool(t, g, part, 30, 9))
	p, err := NewPool(g, part, PoolOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	adopted, err := donor.ExtendTo(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	if adopted != 30 {
		t.Fatalf("adopted %d, want 30", adopted)
	}
	if err := p.EnsureCtx(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	if p.NumSamples() != 100 {
		t.Fatalf("pool has %d samples, want 100", p.NumSamples())
	}
	adopted, err = donor.ExtendTo(p, 200)
	if err != nil {
		t.Fatal(err)
	}
	if adopted != 0 {
		t.Fatalf("exhausted donor adopted %d samples", adopted)
	}
	// The mixed pool still matches pure generation.
	pure := buildPool(t, g, part, 100, 9)
	var a, b bytes.Buffer
	if err := pure.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := p.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("donor-fed pool diverged from pure generation")
	}
}

// TestDonorRejectsMismatchedIdentity: adoption across seed, model, or
// instance boundaries is refused — splicing samples from a different
// stream family would silently corrupt estimates.
func TestDonorRejectsMismatchedIdentity(t *testing.T) {
	g, part := smallInstance(t)
	donor := donorOf(t, buildPool(t, g, part, 10, 9))

	wrongSeed, err := NewPool(g, part, PoolOptions{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := donor.ExtendTo(wrongSeed, 10); err == nil {
		t.Fatal("donor fed a pool with a different seed")
	}

	wrongModel, err := NewPool(g, part, PoolOptions{Seed: 9, Model: diffusion.LT})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := donor.ExtendTo(wrongModel, 10); err == nil {
		t.Fatal("donor fed a pool with a different model")
	}

	g2, part2 := smallInstance(t) // equal content, distinct objects
	other, err := NewPool(g2, part2, PoolOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := donor.ExtendTo(other, 10); err == nil {
		t.Fatal("donor fed a pool over different instance objects")
	}
}
