package xrand

import (
	"math"
	"slices"
	"testing"
)

// bernoulliLiveIn is the per-edge reference LiveIn must reproduce: one
// Bernoulli coin per edge, in edge order, appending the live sources.
func bernoulliLiveIn(r *RNG, froms []int32, ws []float64, dst []int32) []int32 {
	for i, v := range froms {
		if r.Bernoulli(ws[i]) {
			dst = append(dst, v)
		}
	}
	return dst
}

// kernelWeights are the edge probabilities the equivalence tests cover:
// both sentinels, the smallest probabilities at and below the variate's
// resolution, the largest probability below 1, and a non-dyadic value.
var kernelWeights = []float64{
	0,
	math.Ldexp(1, -54),
	math.Ldexp(1, -53),
	1.0 / 3,
	math.Nextafter(1, 0),
	1,
}

// checkLiveIn runs the kernel and the reference from the same state on
// the same edges and fails if the live sources or the generator's next
// outputs differ.
func checkLiveIn(t *testing.T, state RNG, froms []int32, ws []float64, prefix []int32) {
	t.Helper()
	coins := make([]uint64, len(ws))
	for i, w := range ws {
		coins[i] = Threshold(w)
	}
	ref, got := state, state
	want := bernoulliLiveIn(&ref, froms, ws, slices.Clone(prefix))
	out := got.LiveIn(froms, coins, slices.Clone(prefix))
	if !slices.Equal(out, want) {
		t.Fatalf("weights %v: LiveIn kept %v, Bernoulli loop kept %v", ws, out, want)
	}
	for j := 0; j < 4; j++ {
		if a, b := got.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("weights %v: next output %d after LiveIn = %#x, after Bernoulli loop = %#x", ws, j, a, b)
		}
	}
}

// TestLiveInMatchesBernoulli: for every tabled weight, uniform random
// weights, weights spread over exponents 2⁻⁶⁰ to 2⁻¹ and their
// complements (where a float rounding slip would show), and random
// mixes with the table, from random generator states, LiveIn keeps
// exactly the edges the per-edge Bernoulli loop keeps and leaves the
// generator where that loop leaves it.
func TestLiveInMatchesBernoulli(t *testing.T) {
	seeder := New(2024)
	froms := make([]int32, 64)
	for i := range froms {
		froms[i] = int32(1000 + i)
	}
	for trial := 0; trial < 2000; trial++ {
		state := *seeder.Split(uint64(trial))
		d := 1 + seeder.Intn(len(froms))
		ws := make([]float64, d)
		for _, w := range kernelWeights {
			for i := range ws {
				ws[i] = w
			}
			checkLiveIn(t, state, froms[:d], ws, nil)
		}
		for i := range ws {
			ws[i] = seeder.Float64()
		}
		checkLiveIn(t, state, froms[:d], ws, nil)
		for i := range ws {
			ws[i] = math.Ldexp(1+seeder.Float64(), -1-seeder.Intn(60))
			if seeder.Intn(4) == 0 {
				ws[i] = 1 - ws[i]/2
			}
		}
		checkLiveIn(t, state, froms[:d], ws, nil)
		for i := range ws {
			if seeder.Intn(2) == 0 {
				ws[i] = kernelWeights[seeder.Intn(len(kernelWeights))]
			}
		}
		checkLiveIn(t, state, froms[:d], ws, []int32{-1, -2})
	}
}

// TestThresholdBoundary: for random p in (0, 1), the largest variate
// LiveIn keeps, m = Threshold(p)−1, passes Bernoulli's Float64 compare
// and the smallest it rejects, m = Threshold(p), fails it.
func TestThresholdBoundary(t *testing.T) {
	r := New(41)
	for i := 0; i < 100000; i++ {
		p := r.Float64()
		if i%2 == 1 {
			p = math.Ldexp(p, -r.Intn(64))
		}
		if p == 0 {
			continue
		}
		c := Threshold(p)
		if c == coinDead || c >= 1<<53 {
			t.Fatalf("Threshold(%g) = %d is a sentinel", p, c)
		}
		if f := float64(c-1) / (1 << 53); !(f < p) {
			t.Fatalf("Threshold(%g) = %d: m = %d gives Float64 %g, which should pass", p, c, c-1, f)
		}
		if f := float64(c) / (1 << 53); f < p {
			t.Fatalf("Threshold(%g) = %d: m = %d gives Float64 %g, which should fail", p, c, c, f)
		}
	}
}

// TestLiveInExactBoundary: when the next variate's m lands exactly on
// the coin, LiveIn rejects the edge as Bernoulli's strict Float64 < p
// does, and one coin higher it keeps it. Weights are set from a peeked
// variate, since a random one hits the boundary with odds of 2⁻⁵³.
func TestLiveInExactBoundary(t *testing.T) {
	froms := []int32{7}
	for i := uint64(0); i < 1000; i++ {
		state := *New(5).Split(i)
		peek := state
		m := peek.Uint64() >> 11
		for _, c := range []uint64{m, m + 1} {
			p := float64(c) / (1 << 53)
			if c == 0 || p >= 1 {
				continue
			}
			checkLiveIn(t, state, froms, []float64{p}, nil)
		}
	}
}

// TestThresholdSentinels pins the two coins that draw no variate.
func TestThresholdSentinels(t *testing.T) {
	for _, p := range []float64{0, math.Copysign(0, -1), -0.5, math.Inf(-1), math.NaN()} {
		if c := Threshold(p); c != coinDead {
			t.Errorf("Threshold(%g) = %d, want the dead coin", p, c)
		}
	}
	for _, p := range []float64{1, 1.5, math.Inf(1)} {
		if c := Threshold(p); c != coinLive {
			t.Errorf("Threshold(%g) = %d, want the live coin", p, c)
		}
	}
	if c := Threshold(math.Nextafter(1, 0)); c != 1<<53-1 {
		t.Errorf("Threshold(1⁻) = %d, want 2⁵³−1", c)
	}
	if c := Threshold(math.SmallestNonzeroFloat64); c != 1 {
		t.Errorf("Threshold(min subnormal) = %d, want 1", c)
	}
}

// FuzzLiveIn checks the kernel against the Bernoulli loop on arbitrary
// seeds and weights, each weight read from eight fuzzed bytes. Weights
// outside [0, 1] and infinities stay as read, since both sides treat
// them as the sentinels; NaN, which no graph holds (see Threshold),
// becomes 0.
func FuzzLiveIn(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 0, 0, 0, 0, 0xe0, 0x3f})
	f.Add(uint64(2), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x3f, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Add(uint64(3), []byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint64(4), []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x3f, 0, 0, 0, 0, 0, 0, 0xe0, 0xbf})
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		var ws []float64
		for i := 0; i+8 <= len(raw) && len(ws) < 256; i += 8 {
			var bits uint64
			for j := 7; j >= 0; j-- {
				bits = bits<<8 | uint64(raw[i+j])
			}
			w := math.Float64frombits(bits)
			if math.IsNaN(w) {
				w = 0
			}
			ws = append(ws, w)
		}
		froms := make([]int32, len(ws))
		for i := range froms {
			froms[i] = int32(i)
		}
		checkLiveIn(t, *New(seed), froms, ws, nil)
	})
}
