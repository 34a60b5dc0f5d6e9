package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// metricDef is one metric of BENCHMARK.json. Bound, set for end-to-end
// metrics only, is the share of the parent's median by which the metric
// may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Doc says what the metric measures (usage text only).
	Doc string `json:"-"`
}

// endToEnd are reported untraced, for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "median of 5 set-ups: instance build(s), server/worker start, 2 untimed warm-up ops"},
	{"latency_p50_s", "s", "lower", 0.25, "nearest-rank median of per-op wall time (client-side for serve-zipf)"},
	{"latency_p90_s", "s", "lower", 0.25, "nearest-rank 90th percentile of per-op wall time; >= 100 ops are timed, so >= 10 lie beyond it"},
	{"throughput_ops_s", "ops/s", "higher", 0.25, "timed ops / timed wall time"},
	{"benefit_frac", "ratio", "higher", 0.05, "mean Dagum-scored benefit / total benefit over the first 100 timed ops (deterministic given -seed)"},
	{"maxrss_mb", "MiB", "lower", 0.2, "peak resident set of the workload's process"},
}

// perLayer are reported by the traced run. Layer times are given as
// shares of op wall time, which sum to 1 per workload; trace.op_mean_s
// turns a share back into seconds per op. A layer off a workload's path
// reads 0 there.
var perLayer = []metricDef{
	{Name: "expt.build_s", Unit: "s", Better: "lower", Doc: "seconds per expt.BuildInstance call (set-up, workers, reference instances)"},
	{Name: "trace.op_mean_s", Unit: "s", Better: "lower", Doc: "mean traced op wall time, the base of every *_share"},
	{Name: "ric.grow_share", Unit: "ratio", Better: "lower", Doc: "local RIC pool growth (Options.Grow around Pool.EnsureCtx)"},
	{Name: "maxr.select_share", Unit: "ratio", Better: "lower", Doc: "MAXR selection (solver wrapper)"},
	{Name: "core.verify_share", Unit: "ratio", Better: "lower", Doc: "residual: solve time outside grow and select, i.e. Alg. 6 stop checks"},
	{Name: "core.score_share", Unit: "ratio", Better: "lower", Doc: "final core.EstimateCtx Dagum scoring"},
	{Name: "serve.solver_share", Unit: "ratio", Better: "lower", Doc: "server-reported solver time (elapsedMs)"},
	{Name: "serve.overhead_share", Unit: "ratio", Better: "lower", Doc: "client latency minus elapsedMs: HTTP, admission, instance cache, scoring"},
	{Name: "shard.fetch_share", Unit: "ratio", Better: "lower", Doc: "coordinator grow minus splice: waiting for worker ranges"},
	{Name: "shard.splice_share", Unit: "ratio", Better: "lower", Doc: "coordinator ImportRange splice (MergeLatencySeconds delta)"},
	{Name: "trace.unattributed_share", Unit: "ratio", Better: "lower", Doc: "op time outside every layer span"},
	{Name: "ric.samples", Unit: "count", Better: "lower", Doc: "final pool size per solve"},
	{Name: "core.rounds", Unit: "count", Better: "lower", Doc: "stop-and-stare rounds per solve"},
	{Name: "core.score_samples", Unit: "count", Better: "lower", Doc: "samples drawn by the final scoring per op"},
	{Name: "poolcache.hit_frac", Unit: "ratio", Better: "higher", Doc: "pool cache sessions that found a snapshot"},
	{Name: "poolcache.adopted_samples", Unit: "count", Better: "higher", Doc: "cached samples adopted per op"},
	{Name: "poolcache.saves", Unit: "count", Better: "lower", Doc: "snapshots written per op"},
	{Name: "poolcache.disk_mb", Unit: "MiB", Better: "lower", Doc: "pool cache size on disk after the window"},
	{Name: "poolcache.errors", Unit: "count", Better: "lower", Doc: "pool cache load/save errors in the window"},
	{Name: "serve.shed", Unit: "count", Better: "lower", Doc: "requests refused with 429"},
	{Name: "shard.rx_mb", Unit: "MiB", Better: "lower", Doc: "bytes the coordinator received per op"},
	{Name: "shard.ranges", Unit: "count", Better: "lower", Doc: "ranges dispatched per op"},
	{Name: "shard.retries", Unit: "count", Better: "lower", Doc: "failed range attempts in the window"},
	{Name: "shard.local_fallbacks", Unit: "count", Better: "lower", Doc: "ranges generated locally in the window"},
	{Name: "shard.vs_local_ratio", Unit: "ratio", Better: "lower", Doc: "shard-solve p50 / p50 of the same ops solved locally by the output check"},
	{Name: "go.alloc_mb_per_op", Unit: "MiB", Better: "lower", Doc: "heap bytes allocated per op"},
	{Name: "go.gc_cycles_per_op", Unit: "count", Better: "lower", Doc: "GC cycles per op"},
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of durations in
// seconds. It refuses when fewer than beyond samples lie past it.
func percentile(durs []time.Duration, p float64, beyond int) (float64, error) {
	n := len(durs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 || n-rank < beyond {
		return 0, fmt.Errorf("p%g of %d ops has %d ops beyond it, need %d", 100*p, n, n-rank, beyond)
	}
	s := slices.Clone(durs)
	slices.Sort(s)
	return s[rank-1].Seconds(), nil
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(values, n=4) (the default exclusive method), the
// rule the run-to-run spread is judged by.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := slices.Clone(values)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// better reports whether a beats b in the metric's direction.
func (m metricDef) better(a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

// verdict judges head runs against base runs by the paired-run rules:
// improved when head wins at least 9/10 of at least 10 pairs and the
// medians differ by more than base's quartile spread; unresolved when
// base's own spread exceeds the bound and head does not beat every base
// run; regressed when head's median is worse by more than the bound;
// unchanged otherwise. base[i] and head[i] form pair i.
func (m metricDef) verdict(base, head []float64) (v string, wins, pairs int) {
	pairs = min(len(base), len(head))
	for i := 0; i < pairs; i++ {
		if m.better(head[i], base[i]) {
			wins++
		}
	}
	bq1, bmed, bq3 := quartiles(base)
	_, hmed, _ := quartiles(head)
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && m.better(h, b)
		}
	}
	switch {
	case pairs >= 10 && wins*10 >= pairs*9 && m.better(hmed, bmed) && math.Abs(hmed-bmed) > bq3-bq1:
		return "improved", wins, pairs
	case (bq3-bq1) > m.Bound*math.Abs(bmed) && !allBetter:
		return "unresolved", wins, pairs
	case m.better(bmed, hmed) && math.Abs(hmed-bmed) > m.Bound*math.Abs(bmed):
		return "regressed", wins, pairs
	}
	return "unchanged", wins, pairs
}
