package ric

import (
	"bytes"
	"context"
	"testing"

	"imc/internal/community"
	"imc/internal/diffusion"
	"imc/internal/gen"
	"imc/internal/graph"
	"imc/internal/xrand"
)

func benchInstance(tb testing.TB) (*graph.Graph, *community.Partition) {
	tb.Helper()
	g, err := gen.BarabasiAlbert(2000, 5, 3)
	if err != nil {
		tb.Fatal(err)
	}
	g = graph.ApplyWeights(g, graph.WeightedCascade, 0, 0)
	part, err := community.Louvain(g, 3)
	if err != nil {
		tb.Fatal(err)
	}
	part, err = part.SplitBySize(8, 3)
	if err != nil {
		tb.Fatal(err)
	}
	part.SetBoundedThresholds(2)
	part.SetPopulationBenefits()
	return g, part
}

// BenchmarkGenerateIC measures single-sample RIC generation cost under
// Independent Cascade.
func BenchmarkGenerateIC(b *testing.B) {
	g, part := benchInstance(b)
	gen, err := NewGenerator(g, part, diffusion.IC)
	if err != nil {
		b.Fatal(err)
	}
	root := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Generate(root.Split(uint64(i)))
	}
}

// BenchmarkGenerateLT measures single-sample RIC generation under the
// Linear Threshold extension.
func BenchmarkGenerateLT(b *testing.B) {
	g, part := benchInstance(b)
	gen, err := NewGenerator(g, part, diffusion.LT)
	if err != nil {
		b.Fatal(err)
	}
	root := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Generate(root.Split(uint64(i)))
	}
}

// BenchmarkInfluencedStreaming measures the Estimate procedure's
// per-sample cost (generation + early-exit influence check).
func BenchmarkInfluencedStreaming(b *testing.B) {
	g, part := benchInstance(b)
	gen, err := NewGenerator(g, part, diffusion.IC)
	if err != nil {
		b.Fatal(err)
	}
	inSeed := make([]bool, g.NumNodes())
	for i := 0; i < 20; i++ {
		inSeed[i*37] = true
	}
	root := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Influenced(root.Split(uint64(i)), inSeed)
	}
}

// BenchmarkPoolGenerate1K measures bulk pool generation throughput.
func BenchmarkPoolGenerate1K(b *testing.B) {
	g, part := benchInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool, err := NewPool(g, part, PoolOptions{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if err := pool.GenerateCtx(context.Background(), 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCHatEval measures seed-set evaluation over a 5K pool.
func BenchmarkCHatEval(b *testing.B) {
	g, part := benchInstance(b)
	pool, err := NewPool(g, part, PoolOptions{Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	if err := pool.GenerateCtx(context.Background(), 5000); err != nil {
		b.Fatal(err)
	}
	seeds := make([]graph.NodeID, 20)
	for i := range seeds {
		seeds[i] = graph.NodeID(i * 61)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.CHat(seeds)
	}
}

// BenchmarkNuHatEval measures the ν_R evaluation on the same pool.
func BenchmarkNuHatEval(b *testing.B) {
	g, part := benchInstance(b)
	pool, err := NewPool(g, part, PoolOptions{Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	if err := pool.GenerateCtx(context.Background(), 5000); err != nil {
		b.Fatal(err)
	}
	seeds := make([]graph.NodeID, 20)
	for i := range seeds {
		seeds[i] = graph.NodeID(i * 61)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.NuHat(seeds)
	}
}

// codecBenchPool is the 5K pool the codec benchmarks encode and decode.
func codecBenchPool(b *testing.B) *Pool {
	b.Helper()
	g, part := benchInstance(b)
	pool, err := NewPool(g, part, PoolOptions{Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	if err := pool.GenerateCtx(context.Background(), 5000); err != nil {
		b.Fatal(err)
	}
	return pool
}

// BenchmarkPoolSave measures IMCP encoding of a 5K pool.
func BenchmarkPoolSave(b *testing.B) {
	pool := codecBenchPool(b)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := pool.Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkPoolReadInto measures IMCP decoding of a 5K pool into a
// fresh pool — the pool cache's load path.
func BenchmarkPoolReadInto(b *testing.B) {
	pool := codecBenchPool(b)
	var buf bytes.Buffer
	if err := pool.Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := NewPool(pool.g, pool.part, PoolOptions{Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.ReadInto(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolExportRange measures IMCS encoding of the second half
// of a 5K pool — a shard worker's reply.
func BenchmarkPoolExportRange(b *testing.B) {
	pool := codecBenchPool(b)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := pool.ExportRange(&buf, 2500, 5000); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkPoolImportRange measures splicing that half onto a pool
// holding the first half — the coordinator's merge step.
func BenchmarkPoolImportRange(b *testing.B) {
	pool := codecBenchPool(b)
	var buf bytes.Buffer
	if err := pool.ExportRange(&buf, 2500, 5000); err != nil {
		b.Fatal(err)
	}
	donor := donorOf(b, pool)
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := NewPool(pool.g, pool.part, PoolOptions{Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := donor.ExtendTo(p, 2500); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := p.ImportRange(bytes.NewReader(buf.Bytes()), 5000); err != nil {
			b.Fatal(err)
		}
	}
}
