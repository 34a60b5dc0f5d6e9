package diffusion

import (
	"context"
	"testing"

	"imc/internal/gen"
	"imc/internal/graph"
	"imc/internal/xrand"
)

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.BarabasiAlbert(5000, 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	return graph.ApplyWeights(g, graph.WeightedCascade, 0, 0)
}

// BenchmarkSimulateIC measures one forward IC cascade from 10 seeds.
func BenchmarkSimulateIC(b *testing.B) {
	g := benchGraph(b)
	sim := NewSimulator(g, IC)
	seeds := []graph.NodeID{0, 100, 200, 300, 400, 500, 600, 700, 800, 900}
	root := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(seeds, root.Split(uint64(i)))
	}
}

// BenchmarkSimulateLT measures one forward LT cascade from 10 seeds.
func BenchmarkSimulateLT(b *testing.B) {
	g := benchGraph(b)
	sim := NewSimulator(g, LT)
	seeds := []graph.NodeID{0, 100, 200, 300, 400, 500, 600, 700, 800, 900}
	root := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(seeds, root.Split(uint64(i)))
	}
}

// BenchmarkEstimateSpread1K measures a 1000-iteration Monte-Carlo
// spread estimate end to end.
func BenchmarkEstimateSpread1K(b *testing.B) {
	g := benchGraph(b)
	seeds := []graph.NodeID{0, 100, 200}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateSpreadCtx(context.Background(), g, seeds, MCOptions{Iterations: 1000, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
