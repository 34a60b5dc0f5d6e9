package baselines

import (
	"testing"

	"imc/internal/community"
	"imc/internal/gen"
	"imc/internal/graph"
)

func instance(t *testing.T) (*graph.Graph, *community.Partition) {
	t.Helper()
	g, err := gen.BarabasiAlbert(100, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	g = graph.ApplyWeights(g, graph.WeightedCascade, 0, 0)
	part, err := community.Random(100, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	part.SetBoundedThresholds(2)
	part.SetPopulationBenefits()
	return g, part
}

func distinct(t *testing.T, name string, seeds []graph.NodeID, k int) {
	t.Helper()
	if len(seeds) != k {
		t.Fatalf("%s returned %d seeds, want %d", name, len(seeds), k)
	}
	seen := make(map[graph.NodeID]bool)
	for _, s := range seeds {
		if seen[s] {
			t.Fatalf("%s returned duplicate seed %d", name, s)
		}
		seen[s] = true
	}
}

func TestHBC(t *testing.T) {
	g, part := instance(t)
	seeds, err := HBC(g, part, 5)
	if err != nil {
		t.Fatal(err)
	}
	distinct(t, "HBC", seeds, 5)
}

func TestHBCPrefersBeneficialNeighbors(t *testing.T) {
	// Node 0 points at a huge-benefit community; node 3 points nowhere.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(3, 4, 0.0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	part, err := community.New(6, [][]graph.NodeID{{1, 2}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if err := part.SetBenefit(0, 100); err != nil {
		t.Fatal(err)
	}
	seeds, err := HBC(g, part, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Members of the benefit-100 community (1 or 2) or node 0 pointing
	// into it must win over anything near the benefit-2 community.
	if s := seeds[0]; s != 0 && s != 1 && s != 2 {
		t.Fatalf("HBC picked %d, want a node attached to the rich community", s)
	}
}

func TestKSRespectsBudgetAndPicksValuable(t *testing.T) {
	g, part := instance(t)
	k := 6
	seeds, err := KS(g, part, k)
	if err != nil {
		t.Fatal(err)
	}
	distinct(t, "KS", seeds, k)
}

func TestKSIsOptimalKnapsack(t *testing.T) {
	// Communities with thresholds 2,2,3 and benefits 3,4,6; budget 5.
	// Best value = 4+6 = 10 (cost 5); DP must seed those two communities.
	b := graph.NewBuilder(7)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	part, err := community.New(7, [][]graph.NodeID{{0, 1}, {2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	for i, th := range []int{2, 2, 3} {
		if err := part.SetThreshold(i, th); err != nil {
			t.Fatal(err)
		}
	}
	for i, bv := range []float64{3, 4, 6} {
		if err := part.SetBenefit(i, bv); err != nil {
			t.Fatal(err)
		}
	}
	seeds, err := KS(g, part, 5)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[graph.NodeID]bool)
	for _, s := range seeds {
		got[s] = true
	}
	for _, m := range []graph.NodeID{2, 3, 4, 5, 6} {
		if !got[m] {
			t.Fatalf("KS seeds %v missing member %d of the optimal pack", seeds, m)
		}
	}
}

func TestValidation(t *testing.T) {
	g, part := instance(t)
	if _, err := HBC(g, part, 0); err == nil {
		t.Fatal("want k error")
	}
	if _, err := KS(g, part, 1000); err == nil {
		t.Fatal("want k > n error")
	}
	small, err := community.Random(10, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := HBC(g, small, 3); err == nil {
		t.Fatal("want mismatch error")
	}
}
