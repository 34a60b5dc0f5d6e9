package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	if r.N() != 0 || r.Mean() != 0 || r.Variance() != 0 || r.CI95() != 0 {
		t.Fatal("zero value not neutral")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Fatalf("n = %d", r.N())
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %g, want 5", r.Mean())
	}
	// Population variance of this classic dataset is 4; sample variance
	// is 32/7.
	if math.Abs(r.Variance()-32.0/7) > 1e-12 {
		t.Fatalf("variance = %g, want %g", r.Variance(), 32.0/7)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Fatalf("min/max = %g/%g", r.Min(), r.Max())
	}
	if r.CI95() <= 0 {
		t.Fatal("CI95 should be positive for n ≥ 2")
	}
}

func TestSummaryString(t *testing.T) {
	var r Running
	r.Add(1)
	r.Add(3)
	s := r.Summarize()
	if s.N != 2 || s.Mean != 2 {
		t.Fatalf("summary %+v", s)
	}
	if !strings.Contains(s.String(), "n=2") {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestPercentile(t *testing.T) {
	data := []float64{5, 1, 3, 2, 4}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
		{-0.5, 1}, {1.5, 5},
	}
	for _, c := range cases {
		if got := Percentile(data, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("P%.2f = %g, want %g", c.p, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Fatal("empty percentile")
	}
	if Percentile([]float64{7}, 0.9) != 7 {
		t.Fatal("singleton percentile")
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{0, 10}, 0.25); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("interpolated = %g, want 2.5", got)
	}
	// Input unchanged.
	if data[0] != 5 {
		t.Fatal("Percentile mutated input")
	}
}

func TestMeans(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
	if g := GeometricMean([]float64{1, 100}); math.Abs(g-10) > 1e-9 {
		t.Fatalf("geomean = %g", g)
	}
	if GeometricMean([]float64{-1, 0}) != 0 {
		t.Fatal("geomean of non-positive data")
	}
	// Non-positive entries skipped.
	if g := GeometricMean([]float64{0, 4}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean skipping zero = %g", g)
	}
}

// Property: Welford's mean/variance match the two-pass formulas.
func TestQuickWelfordMatchesTwoPass(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var r Running
		data := make([]float64, len(raw))
		for i, v := range raw {
			data[i] = float64(v)
			r.Add(data[i])
		}
		mean := Mean(data)
		ss := 0.0
		for _, x := range data {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(len(data)-1)
		return math.Abs(r.Mean()-mean) < 1e-6 && math.Abs(r.Variance()-variance) < 1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		data := make([]float64, len(raw))
		for i, v := range raw {
			data[i] = float64(v)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.1 {
			v := Percentile(data, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return Percentile(data, 0) <= Percentile(data, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestChiSquareSurvival checks the χ² upper tail against the closed
// form for even df, Q(a, y) = e^−y·Σ_{k<a} yᵏ/k!, on both sides of the
// series/continued-fraction switch, and against tabled 5% critical
// values for odd and even df.
func TestChiSquareSurvival(t *testing.T) {
	for _, df := range []int{2, 4, 10, 30, 100} {
		for _, x := range []float64{0.01, 0.5, 1, 3, float64(df) - 1, float64(df), float64(df) + 3, 2 * float64(df), 5 * float64(df), 300} {
			a, y := df/2, x/2
			term, sum := 1.0, 1.0
			for k := 1; k < a; k++ {
				term *= y / float64(k)
				sum += term
			}
			want := math.Exp(-y) * sum
			if got := ChiSquareSurvival(x, df); math.Abs(got-want) > 1e-12*max(want, 1e-3) {
				t.Errorf("ChiSquareSurvival(%g, %d) = %.17g, want %.17g", x, df, got, want)
			}
		}
	}
	for _, c := range []struct {
		x  float64
		df int
	}{
		{3.841458820694124, 1},
		{7.814727903251178, 3},
		{9.487729036781154, 4},
		{18.307038053275146, 10},
		{37.65248413348277, 25},
		{124.34211340400407, 100},
	} {
		if got := ChiSquareSurvival(c.x, c.df); math.Abs(got-0.05) > 1e-9 {
			t.Errorf("ChiSquareSurvival(%g, %d) = %.12g, want 0.05", c.x, c.df, got)
		}
	}
	if got := ChiSquareSurvival(0, 3); got != 1 {
		t.Errorf("ChiSquareSurvival(0, 3) = %g, want 1", got)
	}
	if got := ChiSquareSurvival(1, 0); !math.IsNaN(got) {
		t.Errorf("ChiSquareSurvival(1, 0) = %g, want NaN", got)
	}
}
