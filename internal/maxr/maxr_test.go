package maxr

import (
	"math"
	"testing"

	"imc/internal/community"
	"imc/internal/gen"
	"imc/internal/graph"
	"imc/internal/ric"
)

// isolatedPairs builds a 4-node edgeless graph with two 2-member
// communities of threshold 2: community A = {0,1} (benefit 10) and
// B = {2,3} (benefit 1). Every RIC sample's cover index is then exactly
// "each member covers itself", making solver behaviour fully
// predictable: the only way to influence a sample is to seed both
// members of its source community.
func isolatedPairs(t *testing.T) (*graph.Graph, *community.Partition) {
	t.Helper()
	b := graph.NewBuilder(4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	part, err := community.New(4, [][]graph.NodeID{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	part.SetBoundedThresholds(2)
	if err := part.SetBenefit(0, 10); err != nil {
		t.Fatal(err)
	}
	if err := part.SetBenefit(1, 1); err != nil {
		t.Fatal(err)
	}
	return g, part
}

func pairPool(t *testing.T, count int) *ric.Pool {
	t.Helper()
	g, part := isolatedPairs(t)
	pool, err := ric.NewPool(g, part, ric.PoolOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Generate(count); err != nil {
		t.Fatal(err)
	}
	return pool
}

func randomPool(t *testing.T, seed uint64) *ric.Pool {
	t.Helper()
	g, err := gen.RandomDirected(25, 80, 0.5, seed)
	if err != nil {
		t.Fatal(err)
	}
	part, err := community.Random(25, 5, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	part.SetBoundedThresholds(2)
	part.SetPopulationBenefits()
	pool, err := ric.NewPool(g, part, ric.PoolOptions{Seed: seed + 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Generate(800); err != nil {
		t.Fatal(err)
	}
	return pool
}

func seedSet(seeds []graph.NodeID) map[graph.NodeID]bool {
	m := make(map[graph.NodeID]bool, len(seeds))
	for _, s := range seeds {
		m[s] = true
	}
	return m
}

func TestCHatNonSubmodularOnPairs(t *testing.T) {
	pool := pairPool(t, 2000)
	// Lemma 2's phenomenon: singletons are worthless, the pair jumps.
	if c := pool.CHat([]graph.NodeID{0}); c != 0 {
		t.Fatalf("ĉ({0}) = %g, want 0", c)
	}
	if c := pool.CHat([]graph.NodeID{0, 1}); c <= 0 {
		t.Fatalf("ĉ({0,1}) = %g, want > 0", c)
	}
}

func TestAllSolversFindTheRichPair(t *testing.T) {
	pool := pairPool(t, 2000)
	solvers := []Solver{UBG{}, MAF{}, BT{}, MB{}}
	for _, s := range solvers {
		res, err := s.Solve(pool, 2)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		got := seedSet(res.Seeds)
		if !got[0] || !got[1] {
			t.Errorf("%s picked %v, want {0,1} (benefit-10 community)", s.Name(), res.Seeds)
		}
		// ĉ must equal 10 · (fraction of samples sourced from A).
		want := 11.0 / float64(pool.NumSamples()) * float64(pool.CommunityFrequency(0))
		if math.Abs(res.CHat-want) > 1e-9 {
			t.Errorf("%s: ĉ = %g, want %g", s.Name(), res.CHat, want)
		}
	}
}

func TestBudgetFourTakesBothCommunities(t *testing.T) {
	pool := pairPool(t, 2000)
	for _, s := range []Solver{UBG{}, BT{}, MB{}} {
		res, err := s.Solve(pool, 4)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Coverage != pool.NumSamples() {
			t.Errorf("%s with k=4 covered %d/%d samples", s.Name(), res.Coverage, pool.NumSamples())
		}
	}
}

func TestUBGDominatesItsComponents(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		pool := randomPool(t, seed*10+1)
		ubg, err := UBG{}.Solve(pool, 4)
		if err != nil {
			t.Fatal(err)
		}
		sNu, err := GreedyNu(pool, 4)
		if err != nil {
			t.Fatal(err)
		}
		sC, err := GreedyCHat(pool, 4)
		if err != nil {
			t.Fatal(err)
		}
		if ubg.Coverage < pool.CoverageCount(sNu) || ubg.Coverage < pool.CoverageCount(sC) {
			t.Fatalf("UBG %d below components %d / %d", ubg.Coverage, pool.CoverageCount(sNu), pool.CoverageCount(sC))
		}
	}
}

func TestMAFDominatesItsComponents(t *testing.T) {
	pool := randomPool(t, 77)
	m := MAF{Seed: 3}
	full, err := m.Solve(pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := m.SolveS1Only(pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m.SolveS2Only(pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	if full.Coverage < s1.Coverage || full.Coverage < s2.Coverage {
		t.Fatalf("MAF %d below S1 %d or S2 %d", full.Coverage, s1.Coverage, s2.Coverage)
	}
}

func TestMBDominatesMAFAndBT(t *testing.T) {
	pool := randomPool(t, 55)
	mb, err := MB{}.Solve(pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	maf, err := MAF{}.Solve(pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := BT{}.Solve(pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mb.Coverage < maf.Coverage || mb.Coverage < bt.Coverage {
		t.Fatalf("MB %d below MAF %d or BT %d", mb.Coverage, maf.Coverage, bt.Coverage)
	}
}

func TestSolversReturnFullBudgetDistinctSeeds(t *testing.T) {
	pool := randomPool(t, 33)
	for _, s := range []Solver{UBG{}, MAF{}, BT{}, MB{}} {
		res, err := s.Solve(pool, 6)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(res.Seeds) != 6 {
			t.Fatalf("%s returned %d seeds, want 6", s.Name(), len(res.Seeds))
		}
		if len(seedSet(res.Seeds)) != 6 {
			t.Fatalf("%s returned duplicate seeds: %v", s.Name(), res.Seeds)
		}
	}
}

func TestGuaranteeFormulas(t *testing.T) {
	pool := pairPool(t, 100) // r=2 communities, h=2
	if got, want := (MAF{}).Guarantee(pool, 4), float64(4/2)/2.0; got != want {
		t.Fatalf("MAF guarantee = %g, want %g", got, want)
	}
	if got, want := (BT{}).Guarantee(pool, 4), (1-1/math.E)/4; got != want {
		t.Fatalf("BT guarantee = %g, want %g", got, want)
	}
	if got, want := (BT{Depth: 3}).Guarantee(pool, 4), (1-1/math.E)/16; math.Abs(got-want) > 1e-12 {
		t.Fatalf("BT depth-3 guarantee = %g, want %g", got, want)
	}
	wantMB := math.Sqrt((1 - 1/math.E) * 2 / (4 * 2))
	if got := (MB{}).Guarantee(pool, 4); math.Abs(got-wantMB) > 1e-12 {
		t.Fatalf("MB guarantee = %g, want %g", got, wantMB)
	}
	if got := (UBG{}).Guarantee(pool, 4); math.Abs(got-(1-1/math.E)) > 1e-12 {
		t.Fatalf("UBG guarantee = %g", got)
	}
}

func TestMAFTheorem3Guarantee(t *testing.T) {
	// Empirical check of Theorem 3: MAF's coverage is ≥ ⌊k/h⌋/r of the
	// best coverage we can find (using UBG as a strong reference).
	for seed := uint64(0); seed < 3; seed++ {
		pool := randomPool(t, 200+seed)
		k := 4
		maf, err := MAF{}.Solve(pool, k)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := UBG{}.Solve(pool, k)
		if err != nil {
			t.Fatal(err)
		}
		alpha := (MAF{}).Guarantee(pool, k)
		if float64(maf.Coverage) < alpha*float64(ref.Coverage)-1e-9 {
			t.Fatalf("seed %d: MAF %d below α·UBG = %g", seed, maf.Coverage, alpha*float64(ref.Coverage))
		}
	}
}

func TestBTDepth3OnBoundedThreeThresholds(t *testing.T) {
	g, err := gen.RandomDirected(20, 60, 0.5, 99)
	if err != nil {
		t.Fatal(err)
	}
	part, err := community.Random(20, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	part.SetBoundedThresholds(3)
	part.SetPopulationBenefits()
	pool, err := ric.NewPool(g, part, ric.PoolOptions{Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Generate(300); err != nil {
		t.Fatal(err)
	}
	res, err := BT{Depth: 3, MaxRoots: 10}.Solve(pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 4 || len(seedSet(res.Seeds)) != 4 {
		t.Fatalf("BT^3 seeds invalid: %v", res.Seeds)
	}
	if res.Coverage != pool.CoverageCount(res.Seeds) {
		t.Fatal("reported coverage inconsistent")
	}
}

func TestBTMaxRootsStillValid(t *testing.T) {
	pool := randomPool(t, 44)
	full, err := BT{}.Solve(pool, 3)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := BT{MaxRoots: 2}.Solve(pool, 3)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Coverage > full.Coverage {
		t.Fatalf("capped BT %d beat full BT %d (caps only restrict the search)", capped.Coverage, full.Coverage)
	}
	if len(capped.Seeds) != 3 {
		t.Fatalf("capped BT returned %d seeds", len(capped.Seeds))
	}
}

func TestMAFSmartMembers(t *testing.T) {
	pool := randomPool(t, 88)
	smart, err := MAF{SmartMembers: true}.Solve(pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(smart.Seeds) != 4 || len(seedSet(smart.Seeds)) != 4 {
		t.Fatalf("smart MAF seeds invalid: %v", smart.Seeds)
	}
	// Deterministic without a seed: no randomness left in S1.
	again, err := MAF{SmartMembers: true}.Solve(pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range smart.Seeds {
		if smart.Seeds[i] != again.Seeds[i] {
			t.Fatal("smart MAF nondeterministic")
		}
	}
}

func TestBTParallelRootsDeterministic(t *testing.T) {
	pool := randomPool(t, 66)
	serial, err := BT{Workers: 1}.Solve(pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := BT{Workers: 4}.Solve(pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Coverage != parallel.Coverage || len(serial.Seeds) != len(parallel.Seeds) {
		t.Fatalf("worker count changed result: %+v vs %+v", serial, parallel)
	}
	for i := range serial.Seeds {
		if serial.Seeds[i] != parallel.Seeds[i] {
			t.Fatalf("seeds differ across worker counts: %v vs %v", serial.Seeds, parallel.Seeds)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	g, part := isolatedPairs(t)
	empty, err := ric.NewPool(g, part, ric.PoolOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Solver{UBG{}, MAF{}, BT{}, MB{}} {
		if _, err := s.Solve(empty, 2); err == nil {
			t.Fatalf("%s accepted empty pool", s.Name())
		}
	}
	pool := pairPool(t, 10)
	for _, s := range []Solver{UBG{}, MAF{}, BT{}, MB{}} {
		if _, err := s.Solve(pool, 0); err == nil {
			t.Fatalf("%s accepted k=0", s.Name())
		}
	}
}

func TestSolversDeterministic(t *testing.T) {
	pool := randomPool(t, 91)
	for _, s := range []Solver{UBG{}, MAF{Seed: 9}, BT{}, MB{MAF: MAF{Seed: 9}}} {
		a, err := s.Solve(pool, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Solve(pool, 5)
		if err != nil {
			t.Fatal(err)
		}
		if a.Coverage != b.Coverage || len(a.Seeds) != len(b.Seeds) {
			t.Fatalf("%s not deterministic", s.Name())
		}
		for i := range a.Seeds {
			if a.Seeds[i] != b.Seeds[i] {
				t.Fatalf("%s not deterministic: %v vs %v", s.Name(), a.Seeds, b.Seeds)
			}
		}
	}
}

// sandwichRatio reports ĉ_R(S)/ν_R(S) for a seed set — the empirical
// factor in UBG's guarantee, plotted in the paper's Fig. 8 (there
// against the Monte-Carlo estimates of c and ν).
func sandwichRatio(pool *ric.Pool, seeds []graph.NodeID) float64 {
	nu := pool.NuHat(seeds)
	if nu <= 0 {
		return 0
	}
	return pool.CHat(seeds) / nu
}

func TestSandwichRatioBounds(t *testing.T) {
	pool := randomPool(t, 17)
	res, err := UBG{}.Solve(pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	ratio := sandwichRatio(pool, res.Seeds)
	if ratio < 0 || ratio > 1+1e-9 {
		t.Fatalf("sandwich ratio %g out of [0,1]", ratio)
	}
	// With thresholds 1, the ratio is exactly 1 (Lemma 4).
	g, err := gen.RandomDirected(20, 50, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	part, err := community.Random(20, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	part.SetBoundedThresholds(1)
	p1, err := ric.NewPool(g, part, ric.PoolOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Generate(400); err != nil {
		t.Fatal(err)
	}
	res1, err := UBG{}.Solve(p1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r := sandwichRatio(p1, res1.Seeds); math.Abs(r-1) > 1e-9 {
		t.Fatalf("h=1 sandwich ratio = %g, want 1", r)
	}
}

func TestGreedyNuMonotoneInK(t *testing.T) {
	pool := randomPool(t, 123)
	prev := -1.0
	for k := 1; k <= 6; k++ {
		seeds, err := GreedyNu(pool, k)
		if err != nil {
			t.Fatal(err)
		}
		nu := pool.NuHat(seeds)
		if nu < prev-1e-9 {
			t.Fatalf("ν̂ decreased from %g to %g at k=%d", prev, nu, k)
		}
		prev = nu
	}
}
