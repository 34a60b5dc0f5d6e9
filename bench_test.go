package imc

import (
	"io"
	"testing"

	"imc/internal/expt"
	"imc/internal/maxr"
	"imc/internal/ric"
	"imc/internal/xrand"
)

func newBenchRNG() *xrand.RNG { return xrand.New(1) }

// benchConfig keeps per-iteration work small enough for testing.B while
// still exercising the full per-figure pipeline. cmd/imcbench runs the
// same code at paper scale.
func benchConfig() expt.Config {
	return expt.Config{
		Scale: 0.03,
		Run: expt.RunConfig{
			Seed:       1,
			Runs:       1,
			MaxSamples: 1 << 12,
			EvalTMax:   1 << 12,
			BTMaxRoots: 8,
		},
		Ks:       []int{4},
		SizeCaps: []int{4},
		Datasets: []string{"facebook", "wikivote"},
	}
}

// BenchmarkTable1Datasets regenerates Table I (dataset statistics).
func BenchmarkTable1Datasets(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := expt.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := expt.RenderTable1(io.Discard, rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4CommunityStructure regenerates Fig. 4 (benefit vs
// community formation and size cap).
func BenchmarkFig4CommunityStructure(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5RegularBenefit regenerates Fig. 5 (benefit vs k, regular
// thresholds).
func BenchmarkFig5RegularBenefit(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6BoundedBenefit regenerates Fig. 6 (benefit vs k, bounded
// thresholds, incl. MB).
func BenchmarkFig6BoundedBenefit(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Runtime regenerates Fig. 7 (seed-selection runtime).
func BenchmarkFig7Runtime(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8UBGRatio regenerates Fig. 8 (UBG sandwich ratio vs k).
func BenchmarkFig8UBGRatio(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = []string{"facebook"}
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig8(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvergenceEstimator runs the estimator-quality experiment
// (the appendix-style addition beyond the paper's figures).
func BenchmarkConvergenceEstimator(b *testing.B) {
	cfg := benchConfig()
	cfg.Run.MaxSamples = 1 << 12
	for i := 0; i < b.N; i++ {
		if _, err := expt.Convergence(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches: the design choices DESIGN.md calls out. ---

// benchPool builds a fixed mid-sized pool once per benchmark.
func benchPool(b *testing.B, bounded bool) *ric.Pool {
	b.Helper()
	inst, err := expt.BuildInstance(expt.InstanceConfig{
		Dataset: "facebook",
		Scale:   0.2,
		Bounded: bounded,
		Seed:    5,
	})
	if err != nil {
		b.Fatal(err)
	}
	pool, err := ric.NewPool(inst.G, inst.Part, ric.PoolOptions{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	if err := pool.Generate(4000); err != nil {
		b.Fatal(err)
	}
	return pool
}

// BenchmarkAblationGreedyNuCELF measures the CELF lazy greedy on ν_R —
// compare against BenchmarkAblationGreedyCHatPlain to see what lazy
// evaluation buys on the submodular half of UBG.
func BenchmarkAblationGreedyNuCELF(b *testing.B) {
	pool := benchPool(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := maxr.GreedyNu(pool, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGreedyCHatPlain measures plain greedy on the
// non-submodular ĉ_R (full re-evaluation per round, the sound choice).
func BenchmarkAblationGreedyCHatPlain(b *testing.B) {
	pool := benchPool(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := maxr.GreedyCHat(pool, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMAFS1Only / S2Only / Full separate MAF's two halves
// (Alg. 3 keeps the better; the paper notes S2 shines in practice while
// only S1 carries the guarantee).
func BenchmarkAblationMAFS1Only(b *testing.B) {
	pool := benchPool(b, true)
	m := maxr.MAF{Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SolveS1Only(pool, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMAFS2Only(b *testing.B) {
	pool := benchPool(b, true)
	m := maxr.MAF{Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SolveS2Only(pool, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMAFFull(b *testing.B) {
	pool := benchPool(b, true)
	m := maxr.MAF{Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(pool, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationUBGSandwich measures the full sandwich (both greedy
// passes) against its single-objective halves above.
func BenchmarkAblationUBGSandwich(b *testing.B) {
	pool := benchPool(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (maxr.UBG{}).Solve(pool, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBTRootCap contrasts BT's faithful full root scan
// (MaxRoots 0) with capped scans. The paper's MB timed out on Pokec
// for the cost of one subproblem per root; BT's touch-count prune
// solves only the roots that can still win, so the full case shows
// what the cap still saves.
func BenchmarkAblationBTRootCap(b *testing.B) {
	pool := benchPool(b, true)
	for _, roots := range []struct {
		name string
		cap  int
	}{{"cap16", 16}, {"cap64", 64}, {"full", 0}} {
		b.Run(roots.name, func(b *testing.B) {
			solver := maxr.BT{MaxRoots: roots.cap}
			for i := 0; i < b.N; i++ {
				if _, err := solver.Solve(pool, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLocalSearch measures the 1-swap refinement pass on
// top of MAF — the quality/cost trade beyond the paper's solvers.
func BenchmarkAblationLocalSearch(b *testing.B) {
	pool := benchPool(b, true)
	base, err := (maxr.MAF{}).Solve(pool, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		maxr.LocalSearch(pool, base.Seeds, 0)
	}
}

// BenchmarkAblationBTDepth sweeps BT^(d) recursion depth (paper §IV-C):
// each extra level multiplies the root scans.
func BenchmarkAblationBTDepth(b *testing.B) {
	pool := benchPool(b, true)
	for _, depth := range []int{2, 3} {
		b.Run("d="+string(rune('0'+depth)), func(b *testing.B) {
			solver := maxr.BT{MaxRoots: 8, Depth: depth}
			for i := 0; i < b.N; i++ {
				if _, err := solver.Solve(pool, 6); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRICSharedVsNaive compares Alg. 1's shared-edge-state
// sampling against the naive per-member variant. The naive variant is
// also statistically biased (see ric.TestNaiveSamplingIsBiased); this
// bench shows the shared construction is no slower either.
func BenchmarkAblationRICSharedVsNaive(b *testing.B) {
	inst, err := expt.BuildInstance(expt.InstanceConfig{Dataset: "facebook", Scale: 0.2, Bounded: true, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("shared", func(b *testing.B) {
		gen, err := ric.NewGenerator(inst.G, inst.Part, IC)
		if err != nil {
			b.Fatal(err)
		}
		root := newBenchRNG()
		for i := 0; i < b.N; i++ {
			gen.Generate(root.Split(uint64(i)))
		}
	})
	b.Run("naive", func(b *testing.B) {
		gen, err := ric.NewGenerator(inst.G, inst.Part, IC)
		if err != nil {
			b.Fatal(err)
		}
		root := newBenchRNG()
		for i := 0; i < b.N; i++ {
			gen.GenerateNaive(root.Split(uint64(i)))
		}
	})
}

// --- Facade-level end-to-end benches. ---

// BenchmarkSolveUBGEndToEnd runs the full IMCAF loop (sampling,
// solving, Estimate verification) through the public API.
func BenchmarkSolveUBGEndToEnd(b *testing.B) {
	g, err := BuildDataset("facebook", 0.1, 3)
	if err != nil {
		b.Fatal(err)
	}
	g = ApplyWeights(g, WeightedCascade, 0, 3)
	part, err := Louvain(g, 3)
	if err != nil {
		b.Fatal(err)
	}
	part, err = part.SplitBySize(8, 3)
	if err != nil {
		b.Fatal(err)
	}
	part.SetBoundedThresholds(2)
	part.SetPopulationBenefits()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(g, part, NewUBG(), Options{K: 5, Eps: 0.3, Delta: 0.3, Seed: 3, MaxSamples: 1 << 13}); err != nil {
			b.Fatal(err)
		}
	}
}
