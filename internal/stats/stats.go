// Package stats provides the small statistical toolkit the experiment
// harness uses to report averaged results: streaming moments (Welford),
// normal-approximation confidence intervals, and percentile summaries.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Running accumulates streaming mean and variance via Welford's
// algorithm. The zero value is ready to use. Aggregations hold one
// accumulator per tracked series, and all five fields are one word
// wide, so the layout is pinned waste-free (40 bytes).
//
//imc:compact
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// N returns the observation count.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean (0 with no observations).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min returns the smallest observation (0 with no observations).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation (0 with no observations).
func (r *Running) Max() float64 { return r.max }

// CI95 returns the half-width of the normal-approximation 95%
// confidence interval of the mean.
func (r *Running) CI95() float64 {
	if r.n < 2 {
		return 0
	}
	return 1.96 * r.StdDev() / math.Sqrt(float64(r.n))
}

// Summary is a frozen snapshot of a Running accumulator.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	CI95   float64
}

// Summarize freezes the accumulator.
func (r *Running) Summarize() Summary {
	return Summary{
		N:      r.n,
		Mean:   r.Mean(),
		StdDev: r.StdDev(),
		Min:    r.min,
		Max:    r.max,
		CI95:   r.CI95(),
	}
}

// String renders "mean ± ci95 (n=…)".
func (s Summary) String() string {
	return fmt.Sprintf("%.3f ± %.3f (n=%d)", s.Mean, s.CI95, s.N)
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of the data using
// linear interpolation; the input slice is not modified.
func Percentile(data []float64, p float64) float64 {
	if len(data) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of data (0 for empty input).
func Mean(data []float64) float64 {
	if len(data) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range data {
		sum += x
	}
	return sum / float64(len(data))
}

// GeometricMean returns the geometric mean of positive data; entries
// ≤ 0 are skipped (0 if none remain).
func GeometricMean(data []float64) float64 {
	logSum, n := 0.0, 0
	for _, x := range data {
		if x > 0 {
			logSum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// ChiSquareSurvival returns Pr[X ≥ x] for X ~ χ²(df), the upper-tail
// p-value of a χ² statistic x on df degrees of freedom. It is the
// regularized upper incomplete gamma function Q(df/2, x/2), evaluated
// by its power series below x/2 = df/2 + 1 and by Lentz's continued
// fraction above (Numerical Recipes §6.2), each to a relative 1e-15.
// df < 1 returns NaN; x ≤ 0 returns 1.
func ChiSquareSurvival(x float64, df int) float64 {
	if df < 1 {
		return math.NaN()
	}
	if !(x > 0) {
		return 1
	}
	a, y := float64(df)/2, x/2
	lg, _ := math.Lgamma(a)
	front := math.Exp(a*math.Log(y) - y - lg) // y^a·e^−y / Γ(a)
	const eps = 1e-15
	if y < a+1 {
		// P(a, y) = front · Σₙ yⁿ / (a(a+1)…(a+n)).
		term := 1 / a
		sum := term
		for n := 1; n < 1000 && term > sum*eps; n++ {
			term *= y / (a + float64(n))
			sum += term
		}
		return max(0, 1-front*sum)
	}
	// Q(a, y) = front / (y+1−a− 1·(1−a)/(y+3−a− 2·(2−a)/(y+5−a− …))).
	const tiny = 1e-300
	b := y + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for n := 1; n < 1000; n++ {
		an := -float64(n) * (float64(n) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		delta := d * c
		h *= delta
		if math.Abs(delta-1) < eps {
			break
		}
	}
	return front * h
}
