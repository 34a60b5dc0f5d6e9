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
	"math/big"
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

// The count-then-positions kernel. A node whose d in-edges all carry
// the same drawing coin c keeps each edge independently with
// probability q = c/2⁵³, so the number K of kept edges is Binomial(d, q)
// and, given K = k, the kept set is a uniform k-subset of the d edges.
// LiveCount draws exactly that: one variate against the cumulative
// table of K, then k distinct positions. It costs 1+K variates (plus
// the rare redraw) instead of LiveIn's d, which pays where d is large
// and q small — under weighted cascade q = 1/d, so K averages 1.
//
// The admission rule follows the LiveIn-vs-LiveCount benchmark rows
// (`imcbench -benchcore`, go1.24.0, linux/amd64): LiveIn costs about
// 5 ns per in-edge, LiveCount about 45 ns at a mean live count of 1
// and some 35–45 ns more per further live edge (a draw, a repeat check
// and a place in the sort). So LiveCount needs enough edges to beat a
// fixed cost, and a small enough q that its per-live-edge cost stays
// under LiveIn's per-edge one.
const (
	// countMinDegree is the smallest in-degree LiveCount serves: under
	// weighted cascade LiveIn is still ahead at d = 8 and LiveCount from
	// d = 10 on (3× at d = 32, 13× at d = 128).
	countMinDegree = 10
	// 1/countMaxProb is the largest edge probability q LiveCount
	// serves (under weighted cascade countMinDegree binds first). At
	// q = 1/4 LiveCount is over 2× slower than LiveIn (d = 16 and 32).
	countMaxProb = 8
	// countMaxMean bounds the mean live count d·q: LiveCount's repeat
	// check grows with the square of K, and its table with K.
	countMaxMean = 8
)

// UseCount reports whether LiveCount should decide a node of in-degree
// d whose in-edges all carry coin c: c must draw (not a sentinel), d
// must reach countMinDegree, q = c/2⁵³ must be at most 1/countMaxProb,
// and the mean live count d·q at most countMaxMean.
func UseCount(d int, c uint64) bool {
	return d >= countMinDegree && (c-1)>>53 == 0 && c <= countOne/countMaxProb &&
		float64(d)*float64(c) <= countMaxMean*float64(countOne)
}

// countOne is 2⁵³, the last entry of every count table: above every
// variate m = Uint64()>>11, so the table scan always stops.
const countOne uint64 = 1 << 53

// CountTable returns the cumulative live-count table of d edges with
// coin c (q = c/2⁵³): entry k is ⌈Pr[K ≤ k]·2⁵³⌉ for K ~ Binomial(d, q),
// computed in 128-bit floating point so every entry is within 1 of the
// exact value. The table stops at the first entry that reaches 2⁵³,
// which is forced to 2⁵³ exactly (it is also the entry for k = d if no
// earlier one does), so it holds at most d+1 entries. c must draw.
func CountTable(d int, c uint64) []uint64 {
	const prec = 128
	newF := func() *big.Float { return new(big.Float).SetPrec(prec) }
	one := newF().SetUint64(countOne)
	fail := newF().SetUint64(countOne - c) // (1−q)·2⁵³
	// pmf = Pr[K = 0] = (1−q)^d by squaring.
	base := newF().Quo(fail, one)
	pmf := newF().SetInt64(1)
	for e := d; e > 0; e >>= 1 {
		if e&1 == 1 {
			pmf.Mul(pmf, base)
		}
		base.Mul(base, base)
	}
	odds := newF().Quo(newF().SetUint64(c), fail) // q/(1−q)
	cdf := newF().Set(pmf)
	scaled, step := newF(), newF()
	var table []uint64
	for k := 0; ; k++ {
		scaled.Mul(cdf, one)
		t, acc := scaled.Uint64()
		if acc == big.Below {
			t++
		}
		if t >= countOne || k == d {
			return append(table, countOne)
		}
		table = append(table, t)
		// Pr[K = k+1] = Pr[K = k]·(d−k)/(k+1)·q/(1−q).
		step.SetInt64(int64(d - k))
		pmf.Mul(pmf, step)
		step.SetInt64(int64(k + 1))
		pmf.Quo(pmf, step)
		pmf.Mul(pmf, odds)
		cdf.Add(cdf, pmf)
	}
}

// LiveCount decides the in-edges of a node that UseCount admits and
// appends the sources of the live ones to dst, in edge order, returning
// the extended slice. cdf is the node's CountTable; anything past its
// final 2⁵³ entry is never read, so a caller may pass a table that runs
// on into the next one. The law of the kept set is the per-edge one
// (see CountTable for the resolution); the variates it consumes are
// not LiveIn's.
//
// One variate m picks the live count K, the first k with m < cdf[k].
// Then each of the K positions is one bounded draw (Intn(d)'s Lemire
// step, inlined), redrawn while it repeats a position already taken.
// For d ≤ 64 the taken positions are one bit word, so a repeat check is
// one test and the sources come out in edge order by walking its set
// bits; a wider node keeps the positions in dst's tail, scans them for
// repeats, and sorts them before mapping them to sources. Both ways
// consume the same variates and keep the same sources in the same
// order. dst grows once, by K.
//
//imc:hotpath
func (r *RNG) LiveCount(froms []int32, cdf []uint64, dst []int32) []int32 {
	m := r.Uint64() >> 11
	k := 0
	for k < len(cdf) && cdf[k] <= m {
		k++
	}
	d := len(froms)
	k = min(k, d) // only a malformed table could ask for more
	base := len(dst)
	dst = slices.Grow(dst, k)[:base+k]
	out := dst[base:]
	un := uint64(d)
	if d <= 64 {
		var taken uint64
		for n := 0; n < k; {
			hi, lo := bits.Mul64(r.Uint64(), un)
			if lo < un {
				for floor := -un % un; lo < floor; {
					hi, lo = bits.Mul64(r.Uint64(), un)
				}
			}
			if bit := uint64(1) << hi; taken&bit == 0 {
				taken |= bit
				n++
			}
		}
		for i := range out {
			out[i] = froms[bits.TrailingZeros64(taken)&63]
			taken &= taken - 1
		}
		return dst
	}
	for n := range out {
	draw:
		hi, lo := bits.Mul64(r.Uint64(), un)
		if lo < un {
			for floor := -un % un; lo < floor; {
				hi, lo = bits.Mul64(r.Uint64(), un)
			}
		}
		pos := int32(hi)
		for _, taken := range out[:n] {
			if taken == pos {
				goto draw
			}
		}
		out[n] = pos
	}
	slices.Sort(out)
	for i, pos := range out {
		out[i] = froms[pos]
	}
	return dst
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
