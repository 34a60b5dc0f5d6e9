package maxr

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"imc/internal/community"
	"imc/internal/gen"
	"imc/internal/graph"
	"imc/internal/ric"
	"imc/internal/xrand"
)

// propertyPool builds a deterministic small pool for quick-check
// properties; seed varies the topology and thresholds.
func propertyPool(seed uint64, bounded bool) (*ric.Pool, error) {
	g, err := gen.RandomDirected(16, 50, 0.6, seed)
	if err != nil {
		return nil, err
	}
	part, err := community.Random(16, 4, seed+1)
	if err != nil {
		return nil, err
	}
	if bounded {
		part.SetBoundedThresholds(2)
	} else {
		part.SetFractionThresholds(0.5)
	}
	part.SetPopulationBenefits()
	pool, err := ric.NewPool(g, part, ric.PoolOptions{Seed: seed + 2})
	if err != nil {
		return nil, err
	}
	if err := pool.GenerateCtx(context.Background(), 300); err != nil {
		return nil, err
	}
	return pool, nil
}

func randomSeedSet(rng *xrand.RNG, n, k int) []graph.NodeID {
	out := make([]graph.NodeID, 0, k)
	for _, v := range rng.SampleK(n, k) {
		out = append(out, graph.NodeID(v))
	}
	return out
}

// Property (Lemma 3): ĉ_R(S) ≤ ν_R(S) for every S, and both are
// monotone under adding a seed.
func TestQuickBoundAndMonotonicity(t *testing.T) {
	f := func(seed uint64, kRaw, extraRaw uint8) bool {
		pool, err := propertyPool(seed%50, seed%2 == 0)
		if err != nil {
			return false
		}
		rng := xrand.New(seed)
		k := int(kRaw%5) + 1
		seeds := randomSeedSet(rng, 16, k)
		chat, nu := pool.CHat(seeds), pool.NuHat(seeds)
		if chat > nu+1e-9 {
			return false
		}
		extra := graph.NodeID(extraRaw % 16)
		grown := append(append([]graph.NodeID(nil), seeds...), extra)
		return pool.CHat(grown) >= chat-1e-9 && pool.NuHat(grown) >= nu-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: ν_R is submodular (Lemma 3's proof): for A ⊆ B and any v,
// marginal(v | A) ≥ marginal(v | B).
func TestQuickNuSubmodular(t *testing.T) {
	f := func(seed uint64, pick [3]uint8) bool {
		pool, err := propertyPool(seed%50, true)
		if err != nil {
			return false
		}
		rng := xrand.New(seed)
		a := randomSeedSet(rng, 16, 2)
		b := append(append([]graph.NodeID(nil), a...), randomSeedSet(rng, 16, 3)...)
		v := graph.NodeID(pick[0] % 16)
		withA := append(append([]graph.NodeID(nil), a...), v)
		withB := append(append([]graph.NodeID(nil), b...), v)
		margA := pool.NuHat(withA) - pool.NuHat(a)
		margB := pool.NuHat(withB) - pool.NuHat(b)
		return margA >= margB-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: ĉ_R and ν_R are invariant under seed-set permutation and
// duplication.
func TestQuickEvalSetSemantics(t *testing.T) {
	f := func(seed uint64) bool {
		pool, err := propertyPool(seed%50, false)
		if err != nil {
			return false
		}
		rng := xrand.New(seed)
		seeds := randomSeedSet(rng, 16, 4)
		shuffled := append([]graph.NodeID(nil), seeds...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		duplicated := append(append([]graph.NodeID(nil), seeds...), seeds...)
		base := pool.CHat(seeds)
		// ν sums fractions in touch order, so permutations may differ by
		// float rounding; compare with tolerance.
		nuDiff := math.Abs(pool.NuHat(shuffled) - pool.NuHat(seeds))
		return pool.CHat(shuffled) == base &&
			pool.CHat(duplicated) == base &&
			nuDiff < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property (Lemma 5): for any seed set S,
// max_{u∈S} |D(S,u)| ≤ #influenced ≤ Σ_{u∈S} |D(S,u)|,
// where D(S,u) is the set of samples u touches that S influences.
func TestQuickLemma5SandwichOnD(t *testing.T) {
	f := func(seed uint64) bool {
		pool, err := propertyPool(seed%50, true)
		if err != nil {
			return false
		}
		rng := xrand.New(seed)
		seeds := randomSeedSet(rng, 16, 3)

		st := pool.NewState()
		for _, s := range seeds {
			st.Add(s)
		}
		influenced := st.InfluencedCount()

		// |D(S,u)|: samples u touches whose threshold S meets.
		dSize := func(u graph.NodeID) int {
			c := 0
			ids, _ := pool.Entries(u)
			for _, id := range ids {
				if st.CoverCount(id) >= pool.Sample(int(id)).Threshold {
					c++
				}
			}
			return c
		}
		maxD, sumD := 0, 0
		for _, u := range seeds {
			d := dSize(u)
			sumD += d
			if d > maxD {
				maxD = d
			}
		}
		return maxD <= influenced && influenced <= sumD
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every solver returns within-budget, in-range, distinct
// seeds for arbitrary small instances.
func TestQuickSolversWellFormed(t *testing.T) {
	solvers := []Solver{UBG{}, MAF{}, BT{MaxRoots: 6}, MB{BT: BT{MaxRoots: 6}}}
	f := func(seed uint64, kRaw uint8) bool {
		pool, err := propertyPool(seed%30, true)
		if err != nil {
			return false
		}
		k := int(kRaw%6) + 1
		for _, s := range solvers {
			res, err := s.SolveCtx(context.Background(), pool, k)
			if err != nil {
				return false
			}
			if len(res.Seeds) > k {
				return false
			}
			seen := map[graph.NodeID]bool{}
			for _, v := range res.Seeds {
				if v < 0 || int(v) >= 16 || seen[v] {
					return false
				}
				seen[v] = true
			}
			if res.Coverage != pool.CoverageCount(res.Seeds) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
