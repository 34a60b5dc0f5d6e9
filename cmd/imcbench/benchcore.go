package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"imc/internal/diffusion"
	"imc/internal/expt"
	"imc/internal/graph"
	"imc/internal/maxr"
	"imc/internal/ric"
	"imc/internal/xrand"
)

// coreBenchSchema versions the -benchcore output shape.
const coreBenchSchema = "imc-corebench/v1"

// benchStats is one measurement: wall time and allocation pressure per
// operation, straight from testing.BenchmarkResult.
type benchStats struct {
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
}

// coreBenchmark is one kernel's row. Before is present only when
// -benchbase supplied an earlier run to diff against; Speedup is
// before/after wall time.
type coreBenchmark struct {
	Name    string      `json:"name"`
	Before  *benchStats `json:"before,omitempty"`
	After   benchStats  `json:"after"`
	Speedup float64     `json:"speedup,omitempty"`
}

// coreBenchReport is the BENCH_core.json shape. Key order is fixed by
// field declaration order — the shape contains no maps — so two runs
// diff cleanly.
type coreBenchReport struct {
	Schema     string          `json:"schema"`
	GoVersion  string          `json:"goversion"`
	Dataset    string          `json:"dataset"`
	PoolSize   int             `json:"poolSize"`
	SeedSetK   int             `json:"seedSetK"`
	Benchmarks []coreBenchmark `json:"benchmarks"`
}

// runBenchCore measures the solver kernels the hot-path contracts
// guard — RIC sample generation, one Alg. 6 Estimate draw, a pool-cache
// hit's decode and adoption, the greedy seed-selection scans and BT's restricted-instance builds (at MB's
// 64-root cap), and the two live-edge kernels on one weighted-cascade
// node per in-degree — and writes a machine-readable report. basePath, when
// non-empty, names an earlier -benchcore file whose numbers become the
// "before" column (used to pin the before/after deltas of a kernel
// change).
func runBenchCore(outPath, basePath string) error {
	const (
		dataset  = "facebook"
		scale    = 0.25
		poolSize = 2048
		k        = 10
	)
	inst, err := expt.BuildInstance(expt.InstanceConfig{Dataset: dataset, Scale: scale, Seed: 42})
	if err != nil {
		return err
	}
	pool, err := ric.NewPool(inst.G, inst.Part, ric.PoolOptions{Seed: 7})
	if err != nil {
		return err
	}
	if err := pool.Generate(poolSize); err != nil {
		return err
	}

	rep := coreBenchReport{
		Schema:    coreBenchSchema,
		GoVersion: runtime.Version(),
		Dataset:   fmt.Sprintf("%s/scale=%g", dataset, scale),
		PoolSize:  poolSize,
		SeedSetK:  k,
	}
	// Best-of-3: scheduler and allocator noise only ever slows a run
	// down, so the minimum wall time is the most repeatable statistic.
	// Allocation counts are deterministic and identical across reps.
	const reps = 3
	add := func(name string, fn func(b *testing.B)) {
		var best benchStats
		for i := 0; i < reps; i++ {
			r := testing.Benchmark(fn)
			s := benchStats{
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			}
			if i == 0 || s.NsPerOp < best.NsPerOp {
				best = s
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, coreBenchmark{Name: name, After: best})
	}
	seeds, err := maxr.GreedyCHat(pool, k)
	if err != nil {
		return err
	}
	add("RICGenerate/IC", benchGenerate(inst, diffusion.IC))
	add("RICGenerate/LT", benchGenerate(inst, diffusion.LT))
	add("Influenced/IC", benchInfluenced(inst, seeds))
	add("PoolGenerate/IC", benchPoolGenerate(inst, poolSize))
	add("CacheAdopt/IC", benchCacheAdopt(inst, pool))
	add("GreedyCHat/k=10", benchGreedy(pool, k, maxr.GreedyCHat))
	add("GreedyNu/k=10", benchGreedy(pool, k, maxr.GreedyNu))
	add("BT/k=10", benchGreedy(pool, k, func(p *ric.Pool, k int) ([]graph.NodeID, error) {
		res, err := maxr.BT{MaxRoots: 64}.Solve(p, k)
		return res.Seeds, err
	}))
	add("BT/full/k=10", benchGreedy(pool, k, func(p *ric.Pool, k int) ([]graph.NodeID, error) {
		res, err := maxr.BT{}.Solve(p, k)
		return res.Seeds, err
	}))
	add("MCBenefit/IC", benchMCBenefit(inst, seeds))
	// One weighted-cascade node per row, through each live-edge kernel:
	// the evidence for xrand.UseCount's degree cutoff.
	for _, d := range []int{2, 4, 8, 10, 12, 16, 32, 128} {
		add(fmt.Sprintf("LiveIn/WC/d=%d", d), benchLiveKernel(d, false))
		add(fmt.Sprintf("LiveCount/WC/d=%d", d), benchLiveKernel(d, true))
	}

	if basePath != "" {
		data, err := os.ReadFile(basePath)
		if err != nil {
			return err
		}
		var base coreBenchReport
		if err := json.Unmarshal(data, &base); err != nil {
			return fmt.Errorf("parsing -benchbase %s: %w", basePath, err)
		}
		before := make(map[string]benchStats, len(base.Benchmarks))
		for _, b := range base.Benchmarks {
			before[b.Name] = b.After
		}
		for i := range rep.Benchmarks {
			b := &rep.Benchmarks[i]
			if prev, ok := before[b.Name]; ok {
				p := prev
				b.Before = &p
				if b.After.NsPerOp > 0 {
					b.Speedup = p.NsPerOp / b.After.NsPerOp
				}
			}
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

// benchGenerate times one RIC sample draw (generator hot path: the
// collective reverse BFS plus per-member cover-slot BFS).
func benchGenerate(inst *expt.Instance, model diffusion.Model) func(b *testing.B) {
	return func(b *testing.B) {
		g, err := ric.NewGenerator(inst.G, inst.Part, model)
		if err != nil {
			b.Fatal(err)
		}
		rng := xrand.New(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = g.Generate(rng)
		}
	}
}

// benchInfluenced times one Alg. 6 Estimate draw for a fixed seed set
// (the GreedyCHat/k=10 seeds): the collective reverse BFS plus the
// check whether the seeds reach the source community's threshold.
func benchInfluenced(inst *expt.Instance, seeds []graph.NodeID) func(b *testing.B) {
	return func(b *testing.B) {
		g, err := ric.NewGenerator(inst.G, inst.Part, diffusion.IC)
		if err != nil {
			b.Fatal(err)
		}
		inSeed := make([]bool, inst.G.NumNodes())
		for _, s := range seeds {
			inSeed[s] = true
		}
		rng := xrand.New(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = g.Influenced(rng, inSeed)
		}
	}
}

// benchPoolGenerate times a full parallel pool generation: the worker
// fan-out writing rawSample slots plus the single-threaded fold into
// samples and the inverted index — the path the memory-layout contracts
// (cache-line-sized rawSample, pre-grown fold appends) guard.
func benchPoolGenerate(inst *expt.Instance, count int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := ric.NewPool(inst.G, inst.Part, ric.PoolOptions{Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			if err := p.Generate(count); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchCacheAdopt times a pool-cache hit: decode a snapshot of src into
// a donor, then adopt its samples into a fresh pool over IMCAF's
// doubling schedule (a quarter, half, then all of src).
func benchCacheAdopt(inst *expt.Instance, src *ric.Pool) func(b *testing.B) {
	return func(b *testing.B) {
		var snap bytes.Buffer
		if err := src.Save(&snap); err != nil {
			b.Fatal(err)
		}
		opts := ric.PoolOptions{Seed: src.Seed()}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			donor, err := ric.ReadDonor(inst.G, inst.Part, opts, bytes.NewReader(snap.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			p, err := ric.NewPool(inst.G, inst.Part, opts)
			if err != nil {
				b.Fatal(err)
			}
			for target := src.NumSamples() / 4; target <= src.NumSamples(); target *= 2 {
				if _, err := donor.ExtendTo(p, target); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// benchMCBenefit times Monte-Carlo benefit estimation — the parallel
// cascade fan-out whose per-worker partial sums the false-sharing
// contract pads apart.
func benchMCBenefit(inst *expt.Instance, seeds []graph.NodeID) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := diffusion.EstimateBenefit(inst.G, inst.Part, seeds, diffusion.MCOptions{
				Iterations: 512, Seed: 11, Workers: 4,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchGreedy times one full k-seed selection over a fixed pool — the
// candidate-scan / CELF-heap hot loops, or BT's root scan.
func benchGreedy(pool *ric.Pool, k int, algo func(*ric.Pool, int) ([]graph.NodeID, error)) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := algo(pool, k); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchLiveKernel times one weighted-cascade node of in-degree d (every
// in-edge of weight 1/d) through LiveCount when count is set, else
// through LiveIn.
func benchLiveKernel(d int, count bool) func(b *testing.B) {
	return func(b *testing.B) {
		froms := make([]int32, d)
		coins := make([]uint64, d)
		for i := range froms {
			froms[i] = int32(i)
			coins[i] = xrand.Threshold(1 / float64(d))
		}
		cdf := xrand.CountTable(d, coins[0])
		dst := make([]int32, 0, d)
		rng := xrand.New(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if count {
				dst = rng.LiveCount(froms, cdf, dst[:0])
			} else {
				dst = rng.LiveIn(froms, coins, dst[:0])
			}
		}
	}
}
