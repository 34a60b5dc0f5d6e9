package stats

import "sort"

// Histogram is a fixed-bound bucketing accumulator in the Prometheus
// style: counts are kept per upper bound, plus a total count and sum,
// so p50/p95/p99 are derivable from a snapshot without retaining the
// raw observations. The zero value is unusable — construct with
// NewHistogram or NewLatencyHistogram.
//
// Histogram is not safe for concurrent use; callers that share one
// across goroutines guard it with their own mutex (matching Running).
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds
	counts []int64   // one per bound, plus the +Inf overflow at the end
	count  int64
	sum    float64
}

// NewHistogram builds a histogram over the given strictly increasing
// upper bounds. Observations above the last bound land in an implicit
// +Inf overflow bucket.
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// latencyBounds spans 1 ms to ~2 min in roughly-doubling steps — wide
// enough that both a cached /solve hit and a multi-doubling job run
// land inside the graduated range.
var latencyBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
	0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// NewLatencyHistogram returns a histogram with log-spaced bounds in
// seconds suited to request and job durations.
func NewLatencyHistogram() *Histogram {
	return NewHistogram(latencyBounds)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i]++
	h.count++
	h.sum += v
}

// Quantile returns an estimate of the q-quantile (q in [0, 1]) by
// linear interpolation inside the bucket the rank falls in. Values in
// the overflow bucket report the last finite bound — the histogram
// cannot see past its own range. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 || len(h.bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	cum := int64(0)
	for i, c := range h.counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i == len(h.bounds) {
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(prev)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return h.bounds[len(h.bounds)-1]
}

// Bucket is one cumulative histogram bucket: the count of observations
// ≤ Le.
type Bucket struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is an immutable copy of a histogram's state, in
// cumulative form plus derived quantiles — ready to serialize into a
// metrics reply.
type HistogramSnapshot struct {
	Buckets []Bucket `json:"buckets"`
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	P50     float64  `json:"p50"`
	P95     float64  `json:"p95"`
	P99     float64  `json:"p99"`
}

// Snapshot captures the histogram's current state. The overflow bucket
// is omitted from Buckets (its count is Count minus the last bucket's).
func (h *Histogram) Snapshot() HistogramSnapshot {
	out := HistogramSnapshot{
		Buckets: make([]Bucket, len(h.bounds)),
		Count:   h.count,
		Sum:     h.sum,
		P50:     h.Quantile(0.50),
		P95:     h.Quantile(0.95),
		P99:     h.Quantile(0.99),
	}
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i]
		out.Buckets[i] = Bucket{Le: b, Count: cum}
	}
	return out
}
