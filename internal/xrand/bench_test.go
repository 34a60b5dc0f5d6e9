package xrand

import "testing"

// BenchmarkUint64 measures the raw generator throughput.
func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

// BenchmarkIntn measures bounded sampling (Lemire rejection).
func BenchmarkIntn(b *testing.B) {
	r := New(1)
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += r.Intn(1000)
	}
	_ = sink
}

// BenchmarkSplit measures stream derivation (once per RIC sample).
func BenchmarkSplit(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Split(uint64(i))
	}
}

// BenchmarkAliasDraw measures community selection (the first step of
// every RIC sample).
func BenchmarkAliasDraw(b *testing.B) {
	weights := make([]float64, 10000)
	for i := range weights {
		weights[i] = float64(i%37) + 1
	}
	a := NewAlias(weights)
	r := New(1)
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += a.Draw(r)
	}
	_ = sink
}

// benchEdges is one facebook-shaped node's in-edges under weighted
// cascade: 28 edges, each live with probability 1/28.
func benchEdges() ([]int32, []float64, []uint64) {
	const d = 28
	froms := make([]int32, d)
	ws := make([]float64, d)
	coins := make([]uint64, d)
	for i := range froms {
		froms[i] = int32(i)
		ws[i] = 1.0 / d
		coins[i] = Threshold(ws[i])
	}
	return froms, ws, coins
}

// BenchmarkLiveIn measures one node's in-edge coins through the kernel.
func BenchmarkLiveIn(b *testing.B) {
	froms, _, coins := benchEdges()
	dst := make([]int32, 0, len(froms))
	r := New(1)
	for i := 0; i < b.N; i++ {
		dst = r.LiveIn(froms, coins, dst[:0])
	}
}

// BenchmarkBernoulliLoop measures the same coins one Bernoulli call per
// edge, the loop LiveIn replaces.
func BenchmarkBernoulliLoop(b *testing.B) {
	froms, ws, _ := benchEdges()
	dst := make([]int32, 0, len(froms))
	r := New(1)
	for i := 0; i < b.N; i++ {
		dst = bernoulliLiveIn(r, froms, ws, dst[:0])
	}
}
