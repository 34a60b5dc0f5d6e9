package ric

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"imc/internal/community"
	"imc/internal/diffusion"
	"imc/internal/gen"
	"imc/internal/graph"
	"imc/internal/xrand"
)

// refSample is a reference RIC draw that shares no code with the
// production sampler below the alias and the count tables: the
// collective reverse BFS of Alg. 1, in the same queue order, returning
// the source community and the sampled live in-lists. Under IC a node
// whose in-edges share one weight that xrand.UseCount admits draws its
// live count and positions naively (refLiveCount); every other in-edge
// gets one Bernoulli coin; under LT a node with positive in-weight draws one Float64 and
// keeps the first in-edge whose weight prefix sum exceeds it (the draw
// scaled by the total when that exceeds 1).
//
// With a non-nil inSeed it also applies the rule Influenced and
// FractionalInfluence stop on: every node's BFS-tree root is the
// member its discoverer's tree grows from (a member is its own), and
// the draw stops once seeds lie in the trees of h distinct members —
// before any in-edge is drawn if the members alone decide it, else
// right after the in-list that does. decided reports that stop; live
// then holds only the in-lists drawn before it.
func refSample(g *graph.Graph, part *community.Partition, alias *xrand.Alias, model diffusion.Model, rng *xrand.RNG, inSeed []bool) (comm int, live map[graph.NodeID][]graph.NodeID, decided bool) {
	commIdx := alias.Draw(rng)
	live = make(map[graph.NodeID][]graph.NodeID)
	seen := make(map[graph.NodeID]bool)
	root := make(map[graph.NodeID]int)
	seededTree := make(map[int]bool)
	need := part.Community(commIdx).Threshold
	var queue []graph.NodeID
	for j, m := range part.Community(commIdx).Members {
		if !seen[m] {
			seen[m] = true
			root[m] = j
			queue = append(queue, m)
			if inSeed != nil && inSeed[m] {
				seededTree[j] = true
			}
		}
	}
	if inSeed != nil && len(seededTree) >= need {
		return commIdx, live, true
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		froms, ws, _ := g.InNeighbors(u)
		if model == diffusion.LT {
			total := 0.0
			for _, w := range ws {
				total += w
			}
			if total > 0 {
				draw := rng.Float64() * max(total, 1)
				sum := 0.0
				for i, w := range ws {
					if sum += w; sum > draw {
						live[u] = append(live[u], froms[i])
						break
					}
				}
			}
		} else if cdf := refCountTable(ws); cdf != nil {
			live[u] = refLiveCount(rng, froms, cdf)
		} else {
			for i, v := range froms {
				if rng.Bernoulli(ws[i]) {
					live[u] = append(live[u], v)
				}
			}
		}
		for _, v := range live[u] {
			if !seen[v] {
				seen[v] = true
				root[v] = root[u]
				queue = append(queue, v)
				if inSeed != nil && inSeed[v] {
					seededTree[root[v]] = true
				}
			}
		}
		if inSeed != nil && len(seededTree) >= need {
			return commIdx, live, true
		}
	}
	return commIdx, live, false
}

// refCountTable returns the live-count table of a node whose in-edge
// weights ws are all one value p that xrand.UseCount admits, and nil
// for every other node (those flip one Bernoulli coin per edge).
func refCountTable(ws []float64) []uint64 {
	if len(ws) == 0 {
		return nil
	}
	for _, w := range ws {
		if w != ws[0] {
			return nil
		}
	}
	if c := xrand.Threshold(ws[0]); xrand.UseCount(len(ws), c) {
		return xrand.CountTable(len(ws), c)
	}
	return nil
}

// refLiveCount is the naive count-then-positions draw: one Float64
// against the table for the live count k, then k distinct positions by
// Intn with repeats redrawn, sorted into edge order.
func refLiveCount(rng *xrand.RNG, froms []graph.NodeID, cdf []uint64) []graph.NodeID {
	f := rng.Float64()
	k := 0
	for !(f < float64(cdf[k])/(1<<53)) {
		k++
	}
	taken := make(map[int]bool)
	var pos []int
	for len(pos) < k {
		if p := rng.Intn(len(froms)); !taken[p] {
			taken[p] = true
			pos = append(pos, p)
		}
	}
	sort.Ints(pos)
	var live []graph.NodeID
	for _, p := range pos {
		live = append(live, froms[p])
	}
	return live
}

// refReached lists the nodes with a live path to m (m included).
func refReached(live map[graph.NodeID][]graph.NodeID, m graph.NodeID) []graph.NodeID {
	seen := map[graph.NodeID]bool{m: true}
	queue := []graph.NodeID{m}
	for head := 0; head < len(queue); head++ {
		for _, w := range live[queue[head]] {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return queue
}

// TestSamplerMatchesBernoulliReference: across weight schemes — not
// only the weighted-cascade weights the goldens pin — Generate's
// samples and Influenced's answers on 2k streams equal the reference
// per-edge Bernoulli sampler's, and both leave stream i in the same
// state.
func TestSamplerMatchesBernoulliReference(t *testing.T) {
	karate, err := gen.Karate()
	if err != nil {
		t.Fatal(err)
	}
	part, err := community.Random(karate.NumNodes(), 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	part.SetBoundedThresholds(2)
	part.SetPopulationBenefits()
	inSeed := make([]bool, karate.NumNodes())
	for _, s := range []graph.NodeID{0, 5, 24, 33} {
		inSeed[s] = true
	}

	const streams = 2000
	for _, sc := range refSchemes {
		t.Run(sc.name, func(t *testing.T) {
			g := graph.ApplyWeights(karate, sc.scheme, sc.p, 7)
			sampler, err := NewGenerator(g, part, 0)
			if err != nil {
				t.Fatal(err)
			}
			root := xrand.New(99)
			var got, want xrand.RNG
			influenced := 0
			for i := uint64(0); i < streams; i++ {
				root.SplitInto(i, &got)
				root.SplitInto(i, &want)
				raw := sampler.Generate(&got)
				comm, live, _ := refSample(g, part, sampler.alias, sampler.model, &want, nil)
				if got != want {
					t.Fatalf("stream %d: Generate left the stream in a different state than the reference", i)
				}
				if err := sameSample(raw, comm, part, live); err != nil {
					t.Fatalf("stream %d: %v", i, err)
				}

				root.SplitInto(i, &got)
				root.SplitInto(i, &want)
				ok := sampler.Influenced(&got, inSeed)
				_, _, decided := refSample(g, part, sampler.alias, sampler.model, &want, inSeed)
				hit := 0
				for _, m := range part.Community(comm).Members {
					for _, v := range refReached(live, m) {
						if inSeed[v] {
							hit++
							break
						}
					}
				}
				refOK := hit >= part.Community(comm).Threshold
				if decided && !refOK {
					t.Fatalf("stream %d: the reference stopped as decided, but the full sample reaches only %d members", i, hit)
				}
				if ok != refOK {
					t.Fatalf("stream %d: Influenced = %v, reference = %v", i, ok, refOK)
				}
				if got != want {
					t.Fatalf("stream %d: Influenced left the stream in a different state than the reference", i)
				}
				if ok {
					influenced++
				}
			}
			t.Logf("%d of %d streams influenced", influenced, streams)
		})
	}
}

// sameSample compares a production sample with the cover sets the
// reference live subgraph implies: node v covers member j iff v reaches
// member j over live edges.
func sameSample(raw rawSample, comm int, part *community.Partition, live map[graph.NodeID][]graph.NodeID) error {
	c := part.Community(comm)
	if int(raw.comm) != comm || int(raw.threshold) != c.Threshold || int(raw.numMembers) != len(c.Members) {
		return fmt.Errorf("header (%d, %d, %d), reference community %d", raw.comm, raw.threshold, raw.numMembers, comm)
	}
	want := make(map[graph.NodeID][]int)
	for j, m := range c.Members {
		for _, v := range refReached(live, m) {
			want[v] = append(want[v], j)
		}
	}
	if len(raw.coverNodes) != len(want) {
		return fmt.Errorf("%d cover nodes, reference %d", len(raw.coverNodes), len(want))
	}
	words := maskWords(int(raw.numMembers))
	for k, v := range raw.coverNodes {
		bits := want[v]
		got := Mask(raw.coverBits[k*words : (k+1)*words])
		if got.OnesCount() != len(bits) {
			return fmt.Errorf("node %d covers %d members, reference %v", v, got.OnesCount(), bits)
		}
		for _, j := range bits {
			if !got.Test(j) {
				return fmt.Errorf("node %d misses member %d", v, j)
			}
		}
	}
	return nil
}

// refHits counts the members of comm that some seed reaches in the
// reference live subgraph.
func refHits(part *community.Partition, comm int, live map[graph.NodeID][]graph.NodeID, inSeed []bool) int {
	hit := 0
	for _, m := range part.Community(comm).Members {
		for _, v := range refReached(live, m) {
			if inSeed[v] {
				hit++
				break
			}
		}
	}
	return hit
}

// matchReference replays stream i of root through Generate, Influenced
// and FractionalInfluence and through the reference sampler: the
// sample's covers, both answers (Influenced = hit ≥ h, Fractional =
// min(hit, h)/h) and the stream state each leaves behind must agree.
// Generate's state is the full reference draw's; the estimators' is
// the reference's under its decision rule, which must never stop early
// on a sample the full draw leaves uninfluenced.
func matchReference(sampler *Generator, inSeed []bool, root *xrand.RNG, i uint64) error {
	part := sampler.part
	var got, want xrand.RNG
	root.SplitInto(i, &got)
	root.SplitInto(i, &want)
	raw := sampler.Generate(&got)
	comm, live, _ := refSample(sampler.g, part, sampler.alias, sampler.model, &want, nil)
	if got != want {
		return fmt.Errorf("stream %d: Generate left the stream in a different state than the reference", i)
	}
	if err := sameSample(raw, comm, part, live); err != nil {
		return fmt.Errorf("stream %d: %v", i, err)
	}
	hit, h := refHits(part, comm, live, inSeed), part.Community(comm).Threshold
	root.SplitInto(i, &want)
	if _, _, decided := refSample(sampler.g, part, sampler.alias, sampler.model, &want, inSeed); decided && hit < h {
		return fmt.Errorf("stream %d: the reference stopped as decided, but the full sample reaches %d of threshold %d", i, hit, h)
	}

	root.SplitInto(i, &got)
	if ok := sampler.Influenced(&got, inSeed); ok != (hit >= h) {
		return fmt.Errorf("stream %d: Influenced = %v, reference reaches %d of threshold %d", i, ok, hit, h)
	}
	if got != want {
		return fmt.Errorf("stream %d: Influenced left the stream in a different state than the reference", i)
	}

	root.SplitInto(i, &got)
	if frac, ref := sampler.FractionalInfluence(&got, inSeed), float64(min(hit, h))/float64(h); frac != ref {
		return fmt.Errorf("stream %d: FractionalInfluence = %g, reference %g", i, frac, ref)
	}
	if got != want {
		return fmt.Errorf("stream %d: FractionalInfluence left the stream in a different state than the reference", i)
	}
	return nil
}

// refSchemes are the weight schemes the reference tests sweep: the
// weighted-cascade weights the goldens pin, plus non-uniform coins,
// constant ones below (0.05, live-count tables on the dense nodes) and
// above (0.37, per-edge coins) xrand.UseCount's q ≤ 1/8 bound, and
// sentinel-only (0 and 1) coins.
var refSchemes = []struct {
	name   string
	scheme graph.WeightScheme
	p      float64
}{
	{"WeightedCascade", graph.WeightedCascade, 0},
	{"Trivalency", graph.Trivalency, 0},
	{"Constant0", graph.ConstantWeight, 0},
	{"Constant0.05", graph.ConstantWeight, 0.05},
	{"Constant0.37", graph.ConstantWeight, 0.37},
	{"Constant1", graph.ConstantWeight, 1},
}

// TestSamplerMatchesReferenceModels extends the Bernoulli reference
// check to FractionalInfluence and to the LT sampler, on the same
// karate instance. It also runs on karate's singleton partition (one
// community per node, threshold 1, benefit 1), where a sample is its
// node's RR set: the instance the IM baseline (internal/ris) samples.
func TestSamplerMatchesReferenceModels(t *testing.T) {
	karate, err := gen.Karate()
	if err != nil {
		t.Fatal(err)
	}
	part, err := community.Random(karate.NumNodes(), 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	part.SetBoundedThresholds(2)
	part.SetPopulationBenefits()
	sets := make([][]graph.NodeID, karate.NumNodes())
	for v := range sets {
		sets[v] = []graph.NodeID{graph.NodeID(v)}
	}
	singletons, err := community.New(karate.NumNodes(), sets)
	if err != nil {
		t.Fatal(err)
	}
	inSeed := make([]bool, karate.NumNodes())
	for _, s := range []graph.NodeID{0, 5, 24, 33} {
		inSeed[s] = true
	}
	parts := []struct {
		prefix string
		part   *community.Partition
	}{{"", part}, {"Singletons/", singletons}}
	for _, pc := range parts {
		for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
			for _, sc := range refSchemes {
				t.Run(fmt.Sprintf("%s%v/%s", pc.prefix, model, sc.name), func(t *testing.T) {
					sampler, err := NewGenerator(graph.ApplyWeights(karate, sc.scheme, sc.p, 7), pc.part, model)
					if err != nil {
						t.Fatal(err)
					}
					root := xrand.New(99)
					for i := uint64(0); i < 2000; i++ {
						if err := matchReference(sampler, inSeed, root, i); err != nil {
							t.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// refGraphNodes is the size of refGraph: large enough for a community
// of more than 64 members (two mask words).
const refGraphNodes = 150

// refGraph is a 150-node preferential-attachment graph with self-loops
// on a few nodes. Builder drops self-loops, but the binary graph format
// carries them, so the graph is re-encoded with the loops added and
// read back through ReadBinary — the path a graph file takes.
func refGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	base, err := gen.BarabasiAlbert(refGraphNodes, 3, 5)
	if err != nil {
		tb.Fatal(err)
	}
	loops := map[graph.NodeID]bool{0: true, 7: true, 42: true, 99: true}
	var offs, tos []uint32
	var ws []float64
	for u := graph.NodeID(0); int(u) < refGraphNodes; u++ {
		offs = append(offs, uint32(len(tos)))
		outs, outW := base.OutNeighbors(u)
		for k, v := range outs {
			tos = append(tos, uint32(v))
			ws = append(ws, outW[k])
		}
		if loops[u] {
			tos = append(tos, uint32(u))
			ws = append(ws, 0.5)
		}
	}
	offs = append(offs, uint32(len(tos)))
	var buf bytes.Buffer
	buf.WriteString("IMCG")
	for _, field := range []any{uint32(1), uint64(refGraphNodes), uint64(len(tos)), offs, tos, ws} {
		if err := binary.Write(&buf, binary.LittleEndian, field); err != nil {
			tb.Fatal(err)
		}
	}
	g, err := graph.ReadBinary(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// refPartition cuts a partSeed-shuffled node order into communities of
// size members (the last one takes the remainder), with thresholds
// spread over [1, |C|] and six partSeed-chosen seed nodes.
func refPartition(tb testing.TB, partSeed uint64, size int) (*community.Partition, []bool) {
	tb.Helper()
	rng := xrand.New(partSeed)
	perm := rng.Perm(refGraphNodes)
	var sets [][]graph.NodeID
	for lo := 0; lo < refGraphNodes; lo += size {
		var set []graph.NodeID
		for _, v := range perm[lo:min(lo+size, refGraphNodes)] {
			set = append(set, graph.NodeID(v))
		}
		sets = append(sets, set)
	}
	part, err := community.New(refGraphNodes, sets)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < part.NumCommunities(); i++ {
		if err := part.SetThreshold(i, 1+rng.Intn(len(part.Community(i).Members))); err != nil {
			tb.Fatal(err)
		}
	}
	part.SetPopulationBenefits()
	inSeed := make([]bool, refGraphNodes)
	for _, v := range perm[:6] {
		inSeed[v] = true
	}
	return part, inSeed
}

// TestSamplerMatchesReferenceWideMasks checks multi-word mask
// propagation: a 100-member community (W = 2) next to a 50-member one,
// under both models and every weight scheme, on a graph with
// self-loops.
func TestSamplerMatchesReferenceWideMasks(t *testing.T) {
	base := refGraph(t)
	part, inSeed := refPartition(t, 11, 100)
	if got := maskWords(len(part.Community(0).Members)); got != 2 {
		t.Fatalf("widest community spans %d mask words, want 2", got)
	}
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		for _, sc := range refSchemes {
			t.Run(fmt.Sprintf("%v/%s", model, sc.name), func(t *testing.T) {
				sampler, err := NewGenerator(graph.ApplyWeights(base, sc.scheme, sc.p, 7), part, model)
				if err != nil {
					t.Fatal(err)
				}
				root := xrand.New(99)
				for i := uint64(0); i < 300; i++ {
					if err := matchReference(sampler, inSeed, root, i); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}
