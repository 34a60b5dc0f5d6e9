package xrand

import (
	"fmt"
	"math"
	"testing"

	"imc/internal/stats"
)

// chiSquareAlpha is the p-value below which a χ² check fails. The
// streams are fixed, so each check is deterministic; at 1e-4 over the
// few dozen checks below a correct sampler fails none by chance, while
// a biased count or position law of even 1% shows at 40,000 draws.
const chiSquareAlpha = 1e-4

// liveSampler decides one node's d in-edges, all of weight p, and
// appends the kept sources to dst.
type liveSampler func(r *RNG, froms []int32, dst []int32) []int32

// liveInSampler is LiveIn on d equal coins.
func liveInSampler(d int, p float64) liveSampler {
	coins := make([]uint64, d)
	for i := range coins {
		coins[i] = Threshold(p)
	}
	return func(r *RNG, froms []int32, dst []int32) []int32 { return r.LiveIn(froms, coins, dst) }
}

// liveCountSampler is LiveCount on d edges of weight p.
func liveCountSampler(d int, p float64) liveSampler {
	cdf := CountTable(d, Threshold(p))
	return func(r *RNG, froms []int32, dst []int32) []int32 { return r.LiveCount(froms, cdf, dst) }
}

// binomialPMF returns Pr[K = k] for K ~ Binomial(d, p), k = 0..d, by
// log-gamma.
func binomialPMF(d int, p float64) []float64 {
	pmf := make([]float64, d+1)
	for k := range pmf {
		lc, _ := math.Lgamma(float64(d + 1))
		lk, _ := math.Lgamma(float64(k + 1))
		lr, _ := math.Lgamma(float64(d - k + 1))
		pmf[k] = math.Exp(lc - lk - lr + float64(k)*math.Log(p) + float64(d-k)*math.Log1p(-p))
	}
	return pmf
}

// chiSquare returns the statistic and degrees of freedom of observed
// counts against expected ones, pooling adjacent cells (left to right,
// the remainder into the last pool) until each expects at least 5.
func chiSquare(observed []int, expected []float64) (float64, int) {
	var os, es []float64
	o, e := 0.0, 0.0
	for i := range observed {
		o += float64(observed[i])
		e += expected[i]
		if e >= 5 {
			os, es = append(os, o), append(es, e)
			o, e = 0, 0
		}
	}
	if len(es) == 0 {
		return 0, 0
	}
	os[len(os)-1] += o
	es[len(es)-1] += e
	stat := 0.0
	for i := range es {
		stat += (os[i] - es[i]) * (os[i] - es[i]) / es[i]
	}
	return stat, len(es) - 1
}

// checkLiveLaw draws trials nodes of in-degree d and weight p through
// sample and χ²-tests two laws of per-edge Bernoulli(p) coins: the
// number of kept edges is Binomial(d, p), and the kept positions are
// uniform over the d edges (each kept position is one count, expected
// total/d per position).
func checkLiveLaw(t *testing.T, sample liveSampler, d int, p float64, seed uint64, trials int) {
	t.Helper()
	froms := make([]int32, d)
	for i := range froms {
		froms[i] = int32(i)
	}
	counts := make([]int, d+1)
	hits := make([]int, d)
	total := 0
	r := New(seed)
	var dst []int32
	for i := 0; i < trials; i++ {
		dst = sample(r, froms, dst[:0])
		counts[len(dst)]++
		for _, v := range dst {
			hits[v]++
		}
		total += len(dst)
	}
	expected := binomialPMF(d, p)
	for k := range expected {
		expected[k] *= float64(trials)
	}
	stat, df := chiSquare(counts, expected)
	if pv := stats.ChiSquareSurvival(stat, df); df < 1 || pv < chiSquareAlpha {
		t.Errorf("live count: χ² = %.2f on %d df, p-value %.3g; counts %v", stat, df, pv, counts[:min(len(counts), 16)])
	}
	uniform := make([]float64, d)
	for i := range uniform {
		uniform[i] = float64(total) / float64(d)
	}
	stat, df = chiSquare(hits, uniform)
	if pv := stats.ChiSquareSurvival(stat, df); df < 1 || pv < chiSquareAlpha {
		t.Errorf("kept positions: χ² = %.2f on %d df, p-value %.3g", stat, df, pv)
	}
}

// liveLawCases are the (in-degree, weight) pairs the χ² test covers:
// weighted cascade (p = 1/d) across degrees, and constant weights.
var liveLawCases = []struct {
	d int
	p float64
}{
	{2, 1.0 / 2}, {8, 1.0 / 8}, {16, 1.0 / 16}, {32, 1.0 / 32}, {128, 1.0 / 128},
	{8, 0.1}, {32, 0.1}, {16, 0.37}, {64, 0.01},
}

// TestLiveLawChiSquare: a node of in-degree d whose in-edges all have
// weight p keeps Binomial(d, p) of them, at uniform positions, under
// weighted cascade and constant weights — through LiveIn and through
// LiveCount, each on its own streams.
func TestLiveLawChiSquare(t *testing.T) {
	const trials = 40000
	for i, c := range liveLawCases {
		t.Run(fmt.Sprintf("LiveIn/d=%d/p=%.4g", c.d, c.p), func(t *testing.T) {
			checkLiveLaw(t, liveInSampler(c.d, c.p), c.d, c.p, uint64(1000+i), trials)
		})
		t.Run(fmt.Sprintf("LiveCount/d=%d/p=%.4g", c.d, c.p), func(t *testing.T) {
			checkLiveLaw(t, liveCountSampler(c.d, c.p), c.d, c.p, uint64(2000+i), trials)
		})
	}
}
