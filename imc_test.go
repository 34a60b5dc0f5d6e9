package imc

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// buildTestInstance assembles a small instance through the public API
// only, mirroring the README quick start.
func buildTestInstance(t *testing.T) (*Graph, *Partition) {
	t.Helper()
	g, err := BuildDataset("facebook", 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	g = ApplyWeights(g, WeightedCascade, 0, 42)
	part, err := Louvain(g, 42)
	if err != nil {
		t.Fatal(err)
	}
	part, err = part.SplitBySize(8, 42)
	if err != nil {
		t.Fatal(err)
	}
	part.SetBoundedThresholds(2)
	part.SetPopulationBenefits()
	return g, part
}

func TestPublicAPISolveAllSolvers(t *testing.T) {
	g, part := buildTestInstance(t)
	solvers := []Solver{NewUBG(), NewMAF(1), NewBT(8, 0), NewMB(1, 8)}
	for _, s := range solvers {
		sol, err := Solve(g, part, s, Options{K: 4, Eps: 0.3, Delta: 0.3, Seed: 1, MaxSamples: 1 << 12})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(sol.Seeds) != 4 {
			t.Fatalf("%s: %d seeds", s.Name(), len(sol.Seeds))
		}
		if sol.CHat < 0 || sol.CHat > part.TotalBenefit() {
			t.Fatalf("%s: ĉ = %g", s.Name(), sol.CHat)
		}
	}
}

func TestPublicAPISolveFixedAndEstimate(t *testing.T) {
	g, part := buildTestInstance(t)
	sol, err := SolveFixed(g, part, NewUBG(), 3, 500, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	est, err := Estimate(g, part, sol.Seeds, EstimateOptions{Eps: 0.2, Delta: 0.2, TMax: 1 << 14, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := EstimateBenefit(g, part, sol.Seeds, MCOptions{Iterations: 5000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if mc > 0 && est.Converged {
		ratio := est.Benefit / mc
		if ratio < 0.5 || ratio > 2 {
			t.Fatalf("Estimate %g vs Monte-Carlo %g disagree wildly", est.Benefit, mc)
		}
	}
}

// TestPublicAPIEstimateRejectsBadSeeds: Estimate errors on a seed id
// outside [0, n) instead of estimating the in-range rest.
func TestPublicAPIEstimateRejectsBadSeeds(t *testing.T) {
	g, part := buildTestInstance(t)
	for _, bad := range []NodeID{-5, NodeID(g.NumNodes()) + 7} {
		if _, err := Estimate(g, part, []NodeID{0, bad}, EstimateOptions{Eps: 0.2, Delta: 0.2, TMax: 1 << 10, Seed: 3}); err == nil {
			t.Fatalf("Estimate accepted seed %d on a %d-node graph", bad, g.NumNodes())
		}
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	g, part := buildTestInstance(t)
	if seeds, err := HBC(g, part, 3); err != nil || len(seeds) != 3 {
		t.Fatalf("HBC: %v %v", seeds, err)
	}
	if seeds, err := KS(g, part, 3); err != nil || len(seeds) != 3 {
		t.Fatalf("KS: %v %v", seeds, err)
	}
	if seeds, err := IM(g, part, 3, RISOptions{Seed: 5}); err != nil || len(seeds) != 3 {
		t.Fatalf("IM: %v %v", seeds, err)
	}
}

func TestPublicAPIGraphConstruction(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 0.5)
	b.AddUndirected(1, 2, 0.25)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("m = %d", g.NumEdges())
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(strings.NewReader(buf.String()), true)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 3 {
		t.Fatal("edge-list round trip lost edges")
	}
	if _, err := FromEdges(3, g.Edges()); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	names := DatasetNames()
	if len(names) != 6 {
		t.Fatalf("datasets: %v", names)
	}
	if _, err := BarabasiAlbert(50, 2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := WattsStrogatz(50, 4, 0.1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := SBM(50, 5, 3, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ErdosRenyi(50, 3, 1); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPICommunities(t *testing.T) {
	g, err := SBM(120, 6, 5, 0.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := Louvain(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := RandomCommunities(120, lp.NumCommunities(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if Modularity(g, lp) <= Modularity(g, rp) {
		t.Fatal("Louvain modularity should beat random")
	}
	p, err := NewPartition(4, [][]NodeID{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCommunities() != 2 {
		t.Fatal("partition construction")
	}
}

func TestPublicAPIPoolAndLT(t *testing.T) {
	g, part := buildTestInstance(t)
	pool, err := NewPool(g, part, PoolOptions{Seed: 1, Model: LT})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.GenerateCtx(context.Background(), 200); err != nil {
		t.Fatal(err)
	}
	if pool.NumSamples() != 200 {
		t.Fatal("pool size")
	}
	sol, err := Solve(g, part, NewUBG(), Options{K: 3, Eps: 0.3, Delta: 0.3, Seed: 1, Model: LT, MaxSamples: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Seeds) != 3 {
		t.Fatal("LT solve seeds")
	}
}
