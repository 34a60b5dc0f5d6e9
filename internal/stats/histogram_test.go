package stats

import (
	"math"
	"testing"
)

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if snap.Count != 5 {
		t.Fatalf("count %d", snap.Count)
	}
	if snap.Sum != 106 {
		t.Fatalf("sum %g", snap.Sum)
	}
	// Cumulative: ≤1 holds {0.5, 1}, ≤2 adds {1.5}, ≤4 adds {3};
	// 100 overflows.
	want := []int64{2, 3, 4}
	for i, b := range snap.Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket le=%g count %d, want %d", b.Le, b.Count, want[i])
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report 0")
	}
	// 1000 observations uniform on (0, 1): quantiles should roughly
	// match the underlying values despite bucketing.
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.50, 0.5, 0.15},
		{0.95, 0.95, 0.1},
		{0.99, 0.99, 0.05},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > tc.tol {
			t.Fatalf("q%g = %g, want ≈ %g", tc.q, got, tc.want)
		}
	}
	// Monotone in q.
	prev := -1.0
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%g: %g < %g", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramOverflowQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(50)
	h.Observe(60)
	// Everything is in the overflow bucket: the histogram can only
	// report its last finite bound.
	if got := h.Quantile(0.99); got != 2 {
		t.Fatalf("overflow quantile %g, want 2", got)
	}
	snap := h.Snapshot()
	if snap.Count != 2 || snap.Buckets[len(snap.Buckets)-1].Count != 0 {
		t.Fatalf("snapshot %+v", snap)
	}
}
