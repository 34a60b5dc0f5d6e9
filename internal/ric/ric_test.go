package ric

import (
	"bytes"
	"math"
	"testing"

	"imc/internal/community"
	"imc/internal/diffusion"
	"imc/internal/gen"
	"imc/internal/graph"
	"imc/internal/xrand"
)

// exactBenefit computes c(S) exactly by enumerating all 2^m edge
// subsets — the ground truth the RIC estimator must match.
func exactBenefit(g *graph.Graph, part *community.Partition, seeds []graph.NodeID) float64 {
	edges := g.Edges()
	m := len(edges)
	if m > 20 {
		panic("exactBenefit: graph too large for enumeration")
	}
	n := g.NumNodes()
	total := 0.0
	for mask := 0; mask < 1<<m; mask++ {
		pr := 1.0
		adj := make([][]graph.NodeID, n)
		for i, e := range edges {
			if mask&(1<<i) != 0 {
				pr *= e.Weight
				adj[e.From] = append(adj[e.From], e.To)
			} else {
				pr *= 1 - e.Weight
			}
		}
		if pr == 0 {
			continue
		}
		active := make([]bool, n)
		queue := make([]graph.NodeID, 0, n)
		for _, s := range seeds {
			if !active[s] {
				active[s] = true
				queue = append(queue, s)
			}
		}
		for head := 0; head < len(queue); head++ {
			for _, v := range adj[queue[head]] {
				if !active[v] {
					active[v] = true
					queue = append(queue, v)
				}
			}
		}
		total += pr * diffusion.CommunityBenefit(part, active)
	}
	return total
}

func buildPool(t testing.TB, g *graph.Graph, part *community.Partition, count int, seed uint64) *Pool {
	t.Helper()
	pool, err := NewPool(g, part, PoolOptions{Seed: seed})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	if err := pool.Generate(count); err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return pool
}

// smallInstance builds a 6-node graph with two 3-node communities and
// moderate weights; every edge subset is enumerable.
func smallInstance(t testing.TB) (*graph.Graph, *community.Partition) {
	t.Helper()
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 0.4)
	b.AddEdge(1, 2, 0.6)
	b.AddEdge(0, 3, 0.5)
	b.AddEdge(3, 4, 0.7)
	b.AddEdge(4, 5, 0.3)
	b.AddEdge(2, 4, 0.2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	part, err := community.New(6, [][]graph.NodeID{{0, 1, 2}, {3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	part.SetBoundedThresholds(2)
	part.SetPopulationBenefits()
	return g, part
}

func TestCHatMatchesExactBenefit(t *testing.T) {
	g, part := smallInstance(t)
	pool := buildPool(t, g, part, 60000, 7)
	for _, seeds := range [][]graph.NodeID{{0}, {0, 3}, {1, 4}, {0, 1, 3}, {5}} {
		want := exactBenefit(g, part, seeds)
		got := pool.CHat(seeds)
		if math.Abs(got-want) > 0.06+0.05*want {
			t.Errorf("seeds %v: ĉ_R = %.4f, exact c = %.4f", seeds, got, want)
		}
	}
}

func TestSeedingWholeCommunityAlwaysInfluences(t *testing.T) {
	g, part := smallInstance(t)
	pool := buildPool(t, g, part, 5000, 11)
	// Seeding every node influences every sample regardless of edges.
	all := []graph.NodeID{0, 1, 2, 3, 4, 5}
	if got := pool.CoverageCount(all); got != pool.NumSamples() {
		t.Fatalf("full seed set influenced %d/%d samples", got, pool.NumSamples())
	}
	if math.Abs(pool.CHat(all)-part.TotalBenefit()) > 1e-9 {
		t.Fatalf("ĉ_R(V) = %g, want total benefit %g", pool.CHat(all), part.TotalBenefit())
	}
}

func TestNuUpperBoundsCHat(t *testing.T) {
	rng := xrand.New(3)
	for trial := 0; trial < 20; trial++ {
		g, err := gen.RandomDirected(12, 30, 0.8, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		part, err := community.Random(12, 3, uint64(trial)+100)
		if err != nil {
			t.Fatal(err)
		}
		part.SetFractionThresholds(0.5)
		part.SetPopulationBenefits()
		pool := buildPool(t, g, part, 500, uint64(trial)+7)
		for s := 0; s < 5; s++ {
			k := rng.Intn(4) + 1
			seeds := make([]graph.NodeID, 0, k)
			for _, v := range rng.SampleK(12, k) {
				seeds = append(seeds, graph.NodeID(v))
			}
			chat, nu := pool.CHat(seeds), pool.NuHat(seeds)
			if chat > nu+1e-9 {
				t.Fatalf("trial %d seeds %v: ĉ_R = %g > ν_R = %g", trial, seeds, chat, nu)
			}
		}
	}
}

func TestLemma4ThresholdOneMeansEquality(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		g, err := gen.RandomDirected(10, 25, 0.7, uint64(trial)+50)
		if err != nil {
			t.Fatal(err)
		}
		part, err := community.Random(10, 4, uint64(trial)+60)
		if err != nil {
			t.Fatal(err)
		}
		part.SetBoundedThresholds(1)
		pool := buildPool(t, g, part, 300, uint64(trial))
		rng := xrand.New(uint64(trial))
		for s := 0; s < 5; s++ {
			seeds := []graph.NodeID{graph.NodeID(rng.Intn(10)), graph.NodeID(rng.Intn(10))}
			chat, nu := pool.CHat(seeds), pool.NuHat(seeds)
			if math.Abs(chat-nu) > 1e-9 {
				t.Fatalf("h=1 but ĉ_R=%g ≠ ν_R=%g", chat, nu)
			}
		}
	}
}

func TestStateIncrementalMatchesBatch(t *testing.T) {
	g, part := smallInstance(t)
	pool := buildPool(t, g, part, 2000, 13)
	seeds := []graph.NodeID{0, 4, 2}
	st := pool.NewState()
	for _, s := range seeds {
		st.Add(s)
	}
	if got, want := pool.Scale()*float64(st.InfluencedCount()), pool.CHat(seeds); math.Abs(got-want) > 1e-12 {
		t.Fatalf("incremental %g vs batch %g", got, want)
	}
	if got, want := pool.Scale()*st.FractionalSum(), pool.NuHat(seeds); math.Abs(got-want) > 1e-9 {
		t.Fatalf("incremental ν %g vs batch %g", got, want)
	}
	// Cached counts must equal mask popcounts.
	for i := 0; i < pool.NumSamples(); i++ {
		if m := st.Covered(int32(i)); m != nil {
			if int32(m.OnesCount()) != st.CoverCount(int32(i)) {
				t.Fatalf("sample %d: cached count %d != popcount %d", i, st.CoverCount(int32(i)), m.OnesCount())
			}
		} else if st.CoverCount(int32(i)) != 0 {
			t.Fatalf("sample %d: nil cover but count %d", i, st.CoverCount(int32(i)))
		}
	}
}

func TestPoolDeterministicAcrossWorkers(t *testing.T) {
	g, part := smallInstance(t)
	p1, err := NewPool(g, part, PoolOptions{Seed: 21, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p4, err := NewPool(g, part, PoolOptions{Seed: 21, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Generate(500); err != nil {
		t.Fatal(err)
	}
	if err := p4.Generate(500); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		a, b := p1.Sample(i), p4.Sample(i)
		if a != b {
			t.Fatalf("sample %d differs across worker counts: %+v vs %+v", i, a, b)
		}
	}
	for _, seeds := range [][]graph.NodeID{{0}, {1, 3}, {2, 4, 5}} {
		if p1.CHat(seeds) != p4.CHat(seeds) {
			t.Fatalf("ĉ_R differs across worker counts for seeds %v", seeds)
		}
	}
}

// TestFoldIndependentOfWorkers: a fold large enough to split into one
// chunk per worker builds the index a one-worker (serial) fold does,
// whichever path feeds it: generation, a snapshot, or staged ranges.
func TestFoldIndependentOfWorkers(t *testing.T) {
	const seed, n = 23, 8 * foldChunkMin
	g, part := smallInstance(t)
	serial, err := NewPool(g, part, PoolOptions{Seed: seed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.Generate(n); err != nil {
		t.Fatal(err)
	}
	want := capturePool(t, serial)
	for _, workers := range []int{2, 4} {
		newPool := func() *Pool {
			p, err := NewPool(g, part, PoolOptions{Seed: seed, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		generated := newPool()
		if err := generated.Generate(n / 4); err != nil {
			t.Fatal(err)
		}
		if err := generated.Generate(n - n/4); err != nil {
			t.Fatal(err)
		}
		loaded := newPool()
		if err := loaded.ReadInto(bytes.NewReader(want.save)); err != nil {
			t.Fatal(err)
		}
		spliced := newPool()
		var staged []*StagedRange
		for _, r := range [][2]int{{0, n / 2}, {n / 2, n}} {
			var buf bytes.Buffer
			if err := serial.ExportRange(&buf, r[0], r[1]); err != nil {
				t.Fatal(err)
			}
			s, err := spliced.StageRange(&buf, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			staged = append(staged, s)
		}
		if err := spliced.FoldRange(staged[1]); err == nil {
			t.Fatal("a staged range folded out of order")
		}
		for _, s := range staged {
			if err := spliced.FoldRange(s); err != nil {
				t.Fatal(err)
			}
		}
		for name, p := range map[string]*Pool{"generated": generated, "loaded": loaded, "spliced": spliced} {
			if !capturePool(t, p).equal(want) {
				t.Fatalf("workers=%d: %s pool differs from the serial fold", workers, name)
			}
		}
	}
}

func TestInfluencedMatchesPoolDistribution(t *testing.T) {
	g, part := smallInstance(t)
	seeds := []graph.NodeID{0, 3}
	pool := buildPool(t, g, part, 40000, 5)
	fromPool := pool.CHat(seeds)

	genr, err := NewGenerator(g, part, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	inSeed := make([]bool, 6)
	for _, s := range seeds {
		inSeed[s] = true
	}
	root := xrand.New(77)
	hits := 0
	const draws = 40000
	for i := 0; i < draws; i++ {
		if genr.Influenced(root.Split(uint64(i)), inSeed) {
			hits++
		}
	}
	fromStream := part.TotalBenefit() * float64(hits) / draws
	if math.Abs(fromPool-fromStream) > 0.08+0.05*fromPool {
		t.Fatalf("pool estimate %g vs streaming estimate %g", fromPool, fromStream)
	}
}

func TestFractionalInfluenceBounds(t *testing.T) {
	g, part := smallInstance(t)
	genr, err := NewGenerator(g, part, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	inSeed := make([]bool, 6)
	inSeed[0] = true
	root := xrand.New(3)
	for i := 0; i < 1000; i++ {
		f := genr.FractionalInfluence(root.Split(uint64(i)), inSeed)
		if f < 0 || f > 1 {
			t.Fatalf("fractional influence out of [0,1]: %g", f)
		}
	}
}

func TestGeneratorRejectsMismatchedPartition(t *testing.T) {
	g, _ := smallInstance(t)
	part, err := community.New(4, [][]graph.NodeID{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGenerator(g, part, diffusion.IC); err == nil {
		t.Fatal("want error for node-count mismatch")
	}
	if _, err := NewPool(g, part, PoolOptions{}); err == nil {
		t.Fatal("want error for node-count mismatch")
	}
}

func TestSampleCoversInvertsIndex(t *testing.T) {
	g, part := smallInstance(t)
	pool := buildPool(t, g, part, 200, 9)
	covers := pool.SampleCovers()
	// Rebuild node→sample pairs from the by-sample view and compare
	// with the inverted index.
	type pair struct {
		node graph.NodeID
		s    int32
	}
	fromCovers := make(map[pair]bool)
	for sID := 0; sID < pool.NumSamples(); sID++ {
		for k := covers.Start[sID]; k < covers.Start[sID+1]; k++ {
			fromCovers[pair{covers.Nodes[k], int32(sID)}] = true
		}
	}
	count := 0
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		ids, _ := pool.Entries(v)
		for _, id := range ids {
			count++
			if !fromCovers[pair{v, id}] {
				t.Fatalf("entry (node %d, sample %d) missing from SampleCovers", v, id)
			}
		}
	}
	if count != len(fromCovers) {
		t.Fatalf("index has %d entries, SampleCovers has %d", count, len(fromCovers))
	}
}

func TestMembersAlwaysCoverThemselves(t *testing.T) {
	g, part := smallInstance(t)
	pool := buildPool(t, g, part, 1000, 15)
	for i := 0; i < pool.NumSamples(); i++ {
		smp := pool.Sample(i)
		members := part.Community(int(smp.Comm)).Members
		for j, m := range members {
			found := false
			w := pool.Words()
			ids, masks := pool.Entries(m)
			for e, id := range ids {
				if id == int32(i) && Mask(masks[e*w:(e+1)*w]).Test(j) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("sample %d: member %d does not cover itself", i, m)
			}
		}
	}
}

// TestLTCHatMatchesForwardMonteCarlo validates the LT reverse sampler
// against forward Linear Threshold simulation: both must estimate the
// same c(S).
func TestLTCHatMatchesForwardMonteCarlo(t *testing.T) {
	g, part := smallInstance(t)
	seeds := []graph.NodeID{0, 3}
	pool, err := NewPool(g, part, PoolOptions{Model: diffusion.LT, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Generate(40000); err != nil {
		t.Fatal(err)
	}
	fromPool := pool.CHat(seeds)
	fromMC, err := diffusion.EstimateBenefit(g, part, seeds, diffusion.MCOptions{
		Iterations: 40000, Seed: 19, Model: diffusion.LT,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fromPool-fromMC) > 0.08+0.05*fromMC {
		t.Fatalf("LT: pool estimate %g vs forward MC %g", fromPool, fromMC)
	}
}

func TestLTPoolGenerates(t *testing.T) {
	g, part := smallInstance(t)
	pool, err := NewPool(g, part, PoolOptions{Model: diffusion.LT, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Generate(500); err != nil {
		t.Fatal(err)
	}
	all := []graph.NodeID{0, 1, 2, 3, 4, 5}
	if pool.CoverageCount(all) != pool.NumSamples() {
		t.Fatal("LT: full seed set must influence every sample")
	}
	if chat := pool.CHat([]graph.NodeID{0}); chat < 0 || chat > part.TotalBenefit() {
		t.Fatalf("LT ĉ_R out of range: %g", chat)
	}
}
