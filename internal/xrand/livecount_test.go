package xrand

import (
	"math"
	"math/big"
	"slices"
	"testing"
)

// naiveLiveCount is the reference LiveCount must reproduce variate for
// variate: Float64 against the table for the count, Intn for each
// position with repeats redrawn, then a sort into edge order.
func naiveLiveCount(r *RNG, froms []int32, cdf []uint64, dst []int32) []int32 {
	f := r.Float64()
	k := 0
	for !(f < float64(cdf[k])/(1<<53)) {
		k++
	}
	taken := map[int]bool{}
	var pos []int
	for len(pos) < k {
		p := r.Intn(len(froms))
		if !taken[p] {
			taken[p] = true
			pos = append(pos, p)
		}
	}
	slices.Sort(pos)
	for _, p := range pos {
		dst = append(dst, froms[p])
	}
	return dst
}

// checkLiveCount runs LiveCount and the naive reference from the same
// state and fails if the kept sources or the generator's next outputs
// differ.
func checkLiveCount(t *testing.T, state RNG, froms []int32, cdf []uint64, prefix []int32) {
	t.Helper()
	ref, got := state, state
	want := naiveLiveCount(&ref, froms, cdf, slices.Clone(prefix))
	out := got.LiveCount(froms, cdf, slices.Clone(prefix))
	if !slices.Equal(out, want) {
		t.Fatalf("d=%d: LiveCount kept %v, reference kept %v", len(froms), out, want)
	}
	for j := 0; j < 4; j++ {
		if a, b := got.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("d=%d: next output %d after LiveCount = %#x, after reference = %#x", len(froms), j, a, b)
		}
	}
}

// exactCountTable is CountTable in exact rational arithmetic: entry k
// is ⌈Pr[K ≤ k]·2⁵³⌉ for K ~ Binomial(d, c/2⁵³), for every k = 0..d.
func exactCountTable(d int, c uint64) []*big.Int {
	scale := new(big.Int).Lsh(big.NewInt(1), 53)
	q := new(big.Rat).SetFrac(new(big.Int).SetUint64(c), scale)
	fail := new(big.Rat).Sub(big.NewRat(1, 1), q)
	// pmf[k] = C(d, k)·qᵏ·(1−q)^(d−k), built from binomials directly
	// rather than by CountTable's recurrence.
	out := make([]*big.Int, d+1)
	cdf := new(big.Rat)
	binom := new(big.Int)
	for k := 0; k <= d; k++ {
		binom.Binomial(int64(d), int64(k))
		term := new(big.Rat).SetInt(binom)
		term.Mul(term, ratPow(q, k))
		term.Mul(term, ratPow(fail, d-k))
		cdf.Add(cdf, term)
		scaled := new(big.Rat).Mul(cdf, new(big.Rat).SetInt(scale))
		ceil := new(big.Int).Quo(scaled.Num(), scaled.Denom())
		if new(big.Int).Mul(ceil, scaled.Denom()).Cmp(scaled.Num()) != 0 {
			ceil.Add(ceil, big.NewInt(1))
		}
		out[k] = ceil
	}
	return out
}

func ratPow(x *big.Rat, e int) *big.Rat {
	out := big.NewRat(1, 1)
	for i := 0; i < e; i++ {
		out.Mul(out, x)
	}
	return out
}

// countCases are (d, c) pairs the table and kernel tests cover:
// weighted-cascade coins across degrees, constant weights, a mean live
// count at the countMaxMean bound, and coins at the variate's
// resolution.
func countCases() [][2]uint64 {
	var cases [][2]uint64
	for _, d := range []int{2, 7, 8, 9, 16, 28, 64, 128} {
		cases = append(cases, [2]uint64{uint64(d), Threshold(1 / float64(d))})
	}
	for _, p := range []float64{0.1, 0.37, 0.5, math.Ldexp(1, -53), math.Ldexp(1, -20), math.Nextafter(1, 0)} {
		for _, d := range []int{8, 20, 64} {
			cases = append(cases, [2]uint64{uint64(d), Threshold(p)})
		}
	}
	cases = append(cases, [2]uint64{1, Threshold(0.3)}, [2]uint64{80, Threshold(0.1)})
	return cases
}

// TestCountTableExact: every CountTable entry is within 1 of the exact
// ⌈Pr[K ≤ k]·2⁵³⌉, the last entry is 2⁵³ (so the scan stops), the table
// never outruns k = d, and it stops no earlier than the exact cdf
// rounds to within 1 of 2⁵³.
func TestCountTableExact(t *testing.T) {
	one := new(big.Int).Lsh(big.NewInt(1), 53)
	for _, c := range countCases() {
		d, coin := int(c[0]), c[1]
		table := CountTable(d, coin)
		exact := exactCountTable(d, coin)
		if len(table) == 0 || len(table) > d+1 {
			t.Fatalf("d=%d c=%d: table has %d entries", d, coin, len(table))
		}
		if last := table[len(table)-1]; last != 1<<53 {
			t.Fatalf("d=%d c=%d: last entry %d, want 2⁵³", d, coin, last)
		}
		for k, got := range table {
			diff := new(big.Int).Sub(new(big.Int).SetUint64(got), exact[k])
			if k == len(table)-1 {
				// The stop entry is forced to 2⁵³; the exact value must
				// already be within 1 of it.
				diff.Sub(one, exact[k])
			}
			if diff.CmpAbs(big.NewInt(1)) > 0 {
				t.Fatalf("d=%d c=%d: entry %d = %d, exact %v", d, coin, k, got, exact[k])
			}
			if k > 0 && got < table[k-1] {
				t.Fatalf("d=%d c=%d: entry %d = %d decreases from %d", d, coin, k, got, table[k-1])
			}
		}
	}
}

// TestLiveCountMatchesReference: on every tested table, from random
// states and with a prefix in dst, LiveCount keeps exactly what the
// naive reference keeps and leaves the generator where it leaves it —
// also when the table slice runs on past its final entry.
func TestLiveCountMatchesReference(t *testing.T) {
	seeder := New(77)
	for _, c := range countCases() {
		d, coin := int(c[0]), c[1]
		table := CountTable(d, coin)
		runOn := append(slices.Clone(table), 0, 1, 2)
		froms := make([]int32, d)
		for i := range froms {
			froms[i] = int32(500 + 3*i)
		}
		for trial := 0; trial < 300; trial++ {
			state := *seeder.Split(uint64(trial))
			checkLiveCount(t, state, froms, table, nil)
			checkLiveCount(t, state, froms, runOn, []int32{-1})
		}
	}
}

// TestLiveCountExactBoundary: a variate landing exactly on a table
// entry counts past it, as the reference's strict Float64 compare does.
func TestLiveCountExactBoundary(t *testing.T) {
	froms := []int32{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	for i := uint64(0); i < 200; i++ {
		state := *New(9).Split(i)
		peek := state
		m := peek.Uint64() >> 11
		for _, edge := range []uint64{m, m + 1} {
			if edge == 0 || edge >= 1<<53 {
				continue
			}
			checkLiveCount(t, state, froms, []uint64{edge, edge, 1 << 53}, nil)
		}
	}
}

// TestUseCount pins the admission rule at its edges.
func TestUseCount(t *testing.T) {
	for _, c := range []struct {
		d    int
		coin uint64
		want bool
	}{
		{countMinDegree, Threshold(1.0 / countMinDegree), true},
		{countMinDegree - 1, Threshold(1.0 / (countMinDegree - 1)), false},
		{countMinDegree - 1, Threshold(0.01), false},
		{1000, Threshold(1e-3), true},
		{64, Threshold(1.0 / countMaxProb), true},
		{64, Threshold(1.0/countMaxProb) + 1, false},
		{16, Threshold(0.25), false},
		{100, Threshold(0.079), true},
		{100, Threshold(0.09), false},
		{100, coinDead, false},
		{100, coinLive, false},
	} {
		if got := UseCount(c.d, c.coin); got != c.want {
			t.Errorf("UseCount(%d, %d) = %v, want %v", c.d, c.coin, got, c.want)
		}
	}
}

// FuzzLiveCount checks the kernel against the naive reference on
// arbitrary seeds, degrees (1..256) and coins, variate for variate,
// including the generator state afterwards.
func FuzzLiveCount(f *testing.F) {
	f.Add(uint64(1), uint16(28), uint64(1<<53)/28)
	f.Add(uint64(2), uint16(1), uint64(1))
	f.Add(uint64(3), uint16(8), uint64(1<<53-1))
	f.Add(uint64(4), uint16(200), uint64(1<<48))
	f.Fuzz(func(t *testing.T, seed uint64, deg uint16, coin uint64) {
		d := 1 + int(deg)%256
		coin = 1 + coin%(1<<53-1) // a drawing coin
		froms := make([]int32, d)
		for i := range froms {
			froms[i] = int32(i)
		}
		checkLiveCount(t, *New(seed), froms, CountTable(d, coin), nil)
	})
}
