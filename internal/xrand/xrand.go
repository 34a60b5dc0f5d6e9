// Package xrand provides a deterministic, splittable pseudo-random number
// generator used by every stochastic component in the library.
//
// Reproducibility is a hard requirement for the experiment harness: runs
// must produce identical results for a given seed regardless of how many
// worker goroutines participate. To that end the package offers
// SplitMix64-seeded xoshiro256** streams that can be split by index, so a
// parallel job assigns stream i to task i and the task order no longer
// matters.
package xrand

import (
	"math"
	"math/bits"
	"slices"
)

// RNG is a xoshiro256** generator. It is NOT safe for concurrent use;
// give each goroutine its own stream via Split.
type RNG struct {
	s  [4]uint64
	id uint64 // seed identity; Split derives children from it, not from s
}

// splitmix64 advances a SplitMix64 state and returns the next output.
// It is the recommended seeder for xoshiro streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator deterministically derived from seed.
func New(seed uint64) *RNG {
	var r RNG
	r.id = seed
	st := seed
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// Split returns an independent stream derived from r's seed identity
// and the stream index. The result depends only on the seed r was
// created with (not on how much r has been consumed), and calling Split
// does not advance r — the properties parallel generation relies on.
func (r *RNG) Split(stream uint64) *RNG {
	out := new(RNG)
	r.SplitInto(stream, out)
	return out
}

// SplitInto reseeds out in place with the stream Split(stream) would
// return, producing a byte-identical sequence without allocating. Hot
// sampling loops that draw one child stream per sample reuse a single
// RNG value this way instead of heap-allocating per iteration.
//
// At 133 units it is over the compiler's inlining budget of 80, so it
// is a hot kernel in its own right rather than an inline candidate.
//
//imc:hotpath
func (r *RNG) SplitInto(stream uint64, out *RNG) {
	st := r.id ^ bits.RotateLeft64(stream+1, 31)*0xd1342543de82ef95
	out.id = splitmix64(&st)
	for i := range out.s {
		out.s[i] = splitmix64(&st)
	}
	if out.s[0]|out.s[1]|out.s[2]|out.s[3] == 0 {
		out.s[0] = 1
	}
}

// Uint64 returns the next 64 random bits (xoshiro256**). At 81 units
// it is one over the compiler's inlining budget of 80, so the Float64
// draws that inline into hot loops call it: it is a hot kernel too.
//
//imc:hotpath
func (r *RNG) Uint64() uint64 {
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	// Lemire's nearly-divisionless bounded sampling.
	un := uint64(n)
	x := r.Uint64()
	hi, lo := bits.Mul64(x, un)
	if lo < un {
		threshold := -un % un
		for lo < threshold {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, un)
		}
	}
	return int(hi)
}

// Bernoulli reports true with probability p. It runs once per edge in
// the IC loops that skip already-visited targets (RIS walks, forward
// simulation), where LiveIn's all-edges scan would draw other
// variates; at 82 units it is just over the compiler's inlining budget
// of 80, so it is a hot kernel rather than an inline candidate.
//
//imc:hotpath
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Integer coins. A coin is the integer form of an edge probability p
// that LiveIn compares a variate's top 53 bits against: coinDead and
// coinLive are the sentinels for p ≤ 0 and p ≥ 1, which draw no
// variate; every other coin lies in [1, 2⁵³−1] and draws exactly one.
// coinLive sits above every variate, so it would keep the edge even if
// drawn, and c−1 < 2⁵³ holds exactly for the coins that draw.
const (
	coinDead uint64 = 0
	coinLive uint64 = 1<<64 - 1
)

// Threshold returns the integer coin for probability p, the value
// LiveIn keeps an edge against. Float64 is m·2⁻⁵³ for the integer
// m = Uint64()>>11 < 2⁵³, and scaling by 2⁵³ is exact, so for
// 0 < p < 1
//
//	Float64() < p  ⇔  m < p·2⁵³  ⇔  m < ⌈p·2⁵³⌉,
//
// and ⌈p·2⁵³⌉ lies in [1, 2⁵³−1]. p ≤ 0 maps to coinDead and p ≥ 1 to
// coinLive, mirroring Bernoulli's two early returns. The three cases
// are exhaustive for every weight a graph.Graph can hold: the builder
// and the constant weight scheme clamp NaN to 0, and both graph
// readers reject it. A NaN p maps to coinDead, which draws no variate
// where Bernoulli(NaN) draws one.
func Threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return coinDead
	case p >= 1:
		return coinLive
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// LiveIn decides one node's in-edge coins in a single call and appends
// the sources of the live edges to dst, returning the extended slice.
// Edge i is live iff Bernoulli(p_i) would have reported true for the
// weight p_i whose Threshold is coins[i]: it consumes exactly the
// variates the per-edge Bernoulli loop does, in the same order, so the
// generator's state afterwards is identical too. coins must be at
// least as long as froms.
//
// The generator state lives in four locals for the whole scan and is
// stored back once. dst grows once, to room for every edge, before the
// loop, so the scan itself never allocates; its spare capacity past
// the returned length is scratch the scan may overwrite.
//
//imc:hotpath
func (r *RNG) LiveIn(froms []int32, coins []uint64, dst []int32) []int32 {
	base := len(dst)
	dst = slices.Grow(dst, len(froms))[:base+len(froms)]
	coins = coins[:len(froms)] // one shared bounds proof for the parallel scan
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	k := base
	for i, v := range froms {
		c := coins[i]
		keep := c != coinDead
		// Neither sentinel: draw one variate (Uint64, inlined). The shift
		// test needs no 64-bit constant, which leaves the loop counter a
		// register instead of a stack slot.
		if (c-1)>>53 == 0 {
			x := bits.RotateLeft64(s1*5, 7) * 9
			t := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = bits.RotateLeft64(s3, 45)
			keep = x>>11 < c
		}
		dst[k] = v // stored unconditionally, kept by the branch-free count
		if keep {
			k++
		}
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
	return dst[:k]
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts permutes p in place (Fisher–Yates).
func (r *RNG) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle permutes n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// SampleK draws k distinct values from [0, n) uniformly (partial
// Fisher–Yates). If k >= n it returns a full permutation.
func (r *RNG) SampleK(n, k int) []int {
	if k > n {
		k = n
	}
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k:k]
}
