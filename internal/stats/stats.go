// Package stats provides the small statistical toolkit the experiment
// harness and the server use to report results: streaming moments
// (Welford) with normal-approximation confidence intervals, latency
// histograms, and the χ² upper tail.
package stats

import "math"

// Running accumulates streaming mean and variance via Welford's
// algorithm. The zero value is ready to use. Aggregations hold one
// accumulator per tracked series, and all three fields are one word
// wide, so the layout is pinned waste-free (24 bytes).
//
//imc:compact
type Running struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

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

// CI95 returns the half-width of the normal-approximation 95%
// confidence interval of the mean.
func (r *Running) CI95() float64 {
	if r.n < 2 {
		return 0
	}
	return 1.96 * r.StdDev() / math.Sqrt(float64(r.n))
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
