package ric

import (
	"fmt"
	"testing"

	"imc/internal/community"
	"imc/internal/gen"
	"imc/internal/graph"
	"imc/internal/xrand"
)

// refSample is a reference RIC draw that shares no code with the
// production sampler below the alias: the collective reverse BFS of
// Alg. 1 with one Bernoulli coin per in-edge, in the same queue order,
// returning the source community and the sampled live in-lists.
func refSample(g *graph.Graph, part *community.Partition, alias *xrand.Alias, rng *xrand.RNG) (int, map[graph.NodeID][]graph.NodeID) {
	commIdx := alias.Draw(rng)
	live := make(map[graph.NodeID][]graph.NodeID)
	seen := make(map[graph.NodeID]bool)
	var queue []graph.NodeID
	for _, m := range part.Community(commIdx).Members {
		if !seen[m] {
			seen[m] = true
			queue = append(queue, m)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		froms, ws, _ := g.InNeighbors(u)
		for i, v := range froms {
			if rng.Bernoulli(ws[i]) {
				live[u] = append(live[u], v)
			}
		}
		for _, v := range live[u] {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return commIdx, live
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

	schemes := []struct {
		name   string
		scheme graph.WeightScheme
		p      float64
	}{
		{"WeightedCascade", graph.WeightedCascade, 0},
		{"Trivalency", graph.Trivalency, 0},
		{"Constant0", graph.ConstantWeight, 0},
		{"Constant0.37", graph.ConstantWeight, 0.37},
		{"Constant1", graph.ConstantWeight, 1},
	}
	const streams = 2000
	for _, sc := range schemes {
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
				comm, live := refSample(g, part, sampler.alias, &want)
				if got != want {
					t.Fatalf("stream %d: Generate left the stream in a different state than the reference", i)
				}
				if err := sameSample(raw, comm, part, live); err != nil {
					t.Fatalf("stream %d: %v", i, err)
				}

				root.SplitInto(i, &got)
				ok := sampler.Influenced(&got, inSeed)
				hit := 0
				for _, m := range part.Community(comm).Members {
					for _, v := range refReached(live, m) {
						if inSeed[v] {
							hit++
							break
						}
					}
				}
				if refOK := hit >= part.Community(comm).Threshold; ok != refOK {
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
