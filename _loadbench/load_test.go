package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"imc/internal/expt"
)

var karate = expt.InstanceConfig{Dataset: "karate", Scale: 1, Bounded: true, Seed: 1}

// TestSolveMatchesRunAlg pins the harness op, traced and untraced, to
// expt.RunAlgCtx: same seeds, same benefit.
func TestSolveMatchesRunAlg(t *testing.T) {
	ctx := context.Background()
	inst, err := expt.BuildInstance(karate)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{expt.AlgUBG, expt.AlgMAF, expt.AlgMB} {
		const seed = 11
		want, err := plainSolve(ctx, inst, alg, 3, 1<<17, seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := solve(ctx, inst, alg, 3, 1<<17, seed, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := solve(ctx, inst, alg, 3, 1<<17, seed, nil, nil, newOpTrace(0, time.Now()))
		if err != nil {
			t.Fatal(err)
		}
		if !got.matches(want) || !traced.matches(want) {
			t.Errorf("%s: op gives %v/%v, traced %v/%v, expt.RunAlgCtx %v/%v",
				alg, got.seeds, got.benefit, traced.seeds, traced.benefit, want.seeds, want.benefit)
		}
	}
}

// benchmarkFile is the subset of BENCHMARK.json the harness must agree
// with.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkFileMatchesTables(t *testing.T) {
	b := readBenchmarkFile(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, table has %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	strip := func(defs []metricDef) []metricDef {
		out := slices.Clone(defs)
		for i := range out {
			out[i].Doc = ""
		}
		return out
	}
	if !slices.Equal(b.EndToEnd, strip(endToEnd)) {
		t.Errorf("end_to_end %+v, table %+v", b.EndToEnd, strip(endToEnd))
	}
	if !slices.Equal(b.PerLayer, strip(perLayer)) {
		t.Errorf("per_layer %+v, table %+v", b.PerLayer, strip(perLayer))
	}
}

// small returns w on karate, without block alignment, so every
// workload runs 3 ops in milliseconds.
func small(w workload) workload {
	w.block = 1
	if w.inst.Dataset != "" {
		w.inst = karate
	}
	if w.datasets != nil {
		w.datasets = []expt.InstanceConfig{karate}
	}
	return w
}

// TestWorkloadsEndToEnd runs every workload at 3 ops on karate, traced
// and untraced: no op fails the output check, both modes give the same
// seed sets, the reported metric names are BENCHMARK.json's, and each
// traced op's layer self times sum to its measured latency.
func TestWorkloadsEndToEnd(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	b := readBenchmarkFile(t)
	names := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.Name)
		}
		sort.Strings(out)
		return out
	}
	ctx := context.Background()
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			var fingerprints []string
			for _, traced := range []bool{false, true} {
				cfg := runConfig{seed: 5, minOps: 3, setups: 1, traced: traced}
				rec, ops, err := measure(ctx, w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if rec.Attempted != 3 || rec.Failed != 0 {
					t.Fatalf("traced=%v: %d ops, %d failed: %v", traced, rec.Attempted, rec.Failed, rec.Failures)
				}
				fingerprints = append(fingerprints, rec.Fingerprint)
				got := make([]string, 0, len(rec.Metrics))
				for name := range rec.Metrics {
					got = append(got, name)
				}
				sort.Strings(got)
				want := names(b.EndToEnd)
				if traced {
					want = names(b.PerLayer)
				}
				if !slices.Equal(got, want) {
					t.Errorf("traced=%v: metrics %v, BENCHMARK.json %v", traced, got, want)
				}
				if !traced {
					continue
				}
				for j, op := range ops {
					layers := make(map[string]float64)
					opSeconds := op.trace.addLayers(layers)
					var sum float64
					for _, k := range layerKeys {
						sum += layers[k]
					}
					lat := op.dur.Seconds()
					if math.Abs(sum-lat) > 0.05*lat || math.Abs(opSeconds-lat) > 0.05*lat {
						t.Errorf("op %d: self times sum to %gs, op span %gs, latency %gs", j, sum, opSeconds, lat)
					}
				}
			}
			if fingerprints[0] != fingerprints[1] {
				t.Errorf("untraced fingerprint %s, traced %s", fingerprints[0], fingerprints[1])
			}
		})
	}
}

// TestZipfBlocksShareTheirMix pins what keeps serve-zipf steady: every
// seed's blocks hold the same keys, only in another order.
func TestZipfBlocksShareTheirMix(t *testing.T) {
	w, _ := findWorkload("serve-zipf")
	block := func(seed uint64, b int) []serveKey {
		z := newZipfKeys(w.datasets, w.algs, seed)
		var keys []serveKey
		for i := 0; i < zipfBlock; i++ {
			keys = append(keys, z.at(warmupOps+b*zipfBlock+i))
		}
		return keys
	}
	sorted := func(keys []serveKey) []string {
		var out []string
		for _, k := range keys {
			out = append(out, fmt.Sprint(k))
		}
		sort.Strings(out)
		return out
	}
	first := block(1, 0)
	for _, other := range [][]serveKey{block(1, 1), block(2, 0)} {
		if !slices.Equal(sorted(first), sorted(other)) {
			t.Fatalf("blocks differ in mix:\n%v\n%v", sorted(first), sorted(other))
		}
	}
	if slices.Equal(first, block(2, 0)) {
		t.Error("seeds 1 and 2 give the same request order")
	}
}

func TestPercentile(t *testing.T) {
	durs := make([]time.Duration, 100)
	for i := range durs {
		durs[len(durs)-1-i] = time.Duration(i+1) * time.Millisecond
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.5, 0.050}, {0.9, 0.090}} {
		got, err := percentile(durs, tc.p, minBeyond)
		if err != nil || got != tc.want {
			t.Errorf("p%g = %g, %v; want %g", tc.p, got, err, tc.want)
		}
	}
	if _, err := percentile(durs[:99], 0.9, minBeyond); err == nil {
		t.Error("p90 of 99 ops has 9 beyond it and must be refused")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	latency := metricDef{Name: "latency_p50_s", Better: "lower", Bound: 0.1}
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	scaled := func(f float64) []float64 {
		out := slices.Clone(base)
		for i := range out {
			out[i] *= f
		}
		return out
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 0.75, 1.25, 1.0, 1.0}
	for _, tc := range []struct {
		name       string
		base, head []float64
		want       string
	}{
		{"faster", base, scaled(0.8), "improved"},
		{"same", base, scaled(1.0), "unchanged"},
		{"slower within bound", base, scaled(1.05), "unchanged"},
		{"slower", base, scaled(1.2), "regressed"},
		{"noisy base", noisy, scaled(1.05), "unresolved"},
		{"too few pairs", base[:5], scaled(0.8)[:5], "unchanged"},
	} {
		if got, _, _ := latency.verdict(tc.base, tc.head); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
