package ric

import (
	"testing"

	"imc/internal/diffusion"
	"imc/internal/graph"
	"imc/internal/xrand"
)

// These tests lock in the hot-path allocation burn-down (see the
// //imc:hotpath annotations): once the generator's scratch has grown to
// steady state, the streaming estimators allocate nothing and Generate
// allocates nothing while its arenas hold room for the two slices it
// hands to the pool's fold (cover nodes, flat mask words).
//
// Each measured run replays one fixed PRNG stream via SplitInto, so the
// sample — and therefore the allocation count — is deterministic.

func warmGenerator(t *testing.T, model diffusion.Model) *Generator {
	t.Helper()
	g, part := benchInstance(t)
	gen, err := NewGenerator(g, part, model)
	if err != nil {
		t.Fatal(err)
	}
	root := xrand.New(7)
	var rng xrand.RNG
	for i := 0; i < 500; i++ {
		root.SplitInto(uint64(i), &rng)
		gen.Generate(&rng)
	}
	return gen
}

func TestInfluencedDoesNotAllocate(t *testing.T) {
	gen := warmGenerator(t, diffusion.IC)
	inSeed := make([]bool, gen.g.NumNodes())
	for i := 0; i < 20; i++ {
		inSeed[i*37] = true
	}
	root := xrand.New(7)
	var rng xrand.RNG
	avg := testing.AllocsPerRun(100, func() {
		root.SplitInto(3, &rng)
		gen.Influenced(&rng, inSeed)
	})
	if avg != 0 {
		t.Errorf("Influenced allocates %.1f objects per run, want 0", avg)
	}
}

func TestFractionalInfluenceDoesNotAllocate(t *testing.T) {
	gen := warmGenerator(t, diffusion.IC)
	inSeed := make([]bool, gen.g.NumNodes())
	for i := 0; i < 20; i++ {
		inSeed[i*37] = true
	}
	root := xrand.New(7)
	var rng xrand.RNG
	avg := testing.AllocsPerRun(100, func() {
		root.SplitInto(5, &rng)
		gen.FractionalInfluence(&rng, inSeed)
	})
	if avg != 0 {
		t.Errorf("FractionalInfluence allocates %.1f objects per run, want 0", avg)
	}
}

// TestGenerateAllocatesExactlyRetainedSlices pins Generate to its
// documented allocation contract: the two slices handed to the pool
// come from the generator's arenas, so a sample allocates nothing while
// the arenas have room for it.
func TestGenerateAllocatesExactlyRetainedSlices(t *testing.T) {
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		gen := warmGenerator(t, model)
		root := xrand.New(7)
		var rng xrand.RNG
		root.SplitInto(11, &rng)
		raw := gen.Generate(&rng)
		// Room for the warm-up run and the 100 measured ones.
		gen.nodes.free = make([]graph.NodeID, 101*len(raw.coverNodes))
		gen.bits.free = make([]uint64, 101*len(raw.coverBits))
		avg := testing.AllocsPerRun(100, func() {
			root.SplitInto(11, &rng)
			gen.Generate(&rng)
		})
		if avg != 0 {
			t.Errorf("%v: Generate allocates %.1f objects per run, want 0 while its arenas have room", model, avg)
		}
		if len(gen.nodes.free) != 0 || len(gen.bits.free) != 0 {
			t.Errorf("%v: the runs left %d nodes and %d words of arena unused, want the exact footprint", model, len(gen.nodes.free), len(gen.bits.free))
		}
	}
}
