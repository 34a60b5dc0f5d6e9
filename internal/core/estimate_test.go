package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"imc/internal/community"
	"imc/internal/diffusion"
	"imc/internal/graph"
	"imc/internal/maxr"
	"imc/internal/ric"
	"imc/internal/xrand"
)

// sequentialEstimate is Alg. 6 as one plain loop — sample t from stream
// t, stop at the first t whose running mass reaches Λ′ — the reference
// the parallel EstimateCtx must reproduce bit for bit.
func sequentialEstimate(t *testing.T, g *graph.Graph, part *community.Partition, seeds []graph.NodeID, opts EstimateOptions) EstimateResult {
	t.Helper()
	gen, err := ric.NewGenerator(g, part, opts.Model)
	if err != nil {
		t.Fatal(err)
	}
	inSeed := make([]bool, g.NumNodes())
	for _, s := range seeds {
		inSeed[s] = true
	}
	root := xrand.New(opts.Seed)
	lambda := stoppingThreshold(opts.Eps, opts.Delta)
	mass := 0.0
	var rng xrand.RNG
	for i := 1; i <= opts.TMax; i++ {
		root.SplitInto(uint64(i), &rng)
		if opts.Fractional {
			mass += gen.FractionalInfluence(&rng, inSeed)
		} else if gen.Influenced(&rng, inSeed) {
			mass++
		}
		if mass >= lambda {
			return EstimateResult{Benefit: part.TotalBenefit() * lambda / float64(i), Samples: i, Converged: true}
		}
	}
	return EstimateResult{Benefit: part.TotalBenefit() * mass / float64(opts.TMax), Samples: opts.TMax}
}

func estimateKey(e EstimateResult) string {
	return fmt.Sprintf("benefit=%x samples=%d converged=%v", math.Float64bits(e.Benefit), e.Samples, e.Converged)
}

func solutionKey(s Solution) string {
	return fmt.Sprintf("seeds=%v chat=%x est=%x samples=%d doublings=%d stopped=%v alpha=%x ratio=%x",
		s.Seeds, math.Float64bits(s.CHat), math.Float64bits(s.EstimatedBenefit), s.Samples,
		s.Doublings, s.Stopped, math.Float64bits(s.Alpha), math.Float64bits(s.SandwichRatio))
}

// estimateWorkers are the worker counts every order-preservation test
// sweeps: sequential, the usual core counts, and one that does not
// divide a block.
var estimateWorkers = []int{1, 2, 3, 8}

// TestEstimateMatchesSequential pins the tentpole contract: for every
// worker count, EstimateCtx returns exactly what the one-loop Alg. 6
// returns — converged or capped, indicator or fractional, IC or LT, and
// TMax on and off block boundaries. Where a case carries a golden value,
// recorded from the single-threaded implementation this one replaced,
// the reference loop must reproduce it, so the reference cannot drift
// along with the code it checks.
func TestEstimateMatchesSequential(t *testing.T) {
	cases := []struct {
		name     string
		instance uint64
		seeds    []graph.NodeID
		opts     EstimateOptions
		golden   string
	}{
		{"indicator", 61, []graph.NodeID{0, 1, 2, 3, 4, 5}, EstimateOptions{Eps: 0.1, Delta: 0.1, TMax: 1 << 18, Seed: 3},
			"benefit=4034dc6845642a0c samples=1363 converged=true"},
		{"fractional", 71, []graph.NodeID{0, 1, 2}, EstimateOptions{Eps: 0.15, Delta: 0.15, TMax: 1 << 17, Seed: 9, Fractional: true},
			"benefit=40316a1c59487eee samples=657 converged=true"},
		{"LT", 81, []graph.NodeID{3, 7, 11}, EstimateOptions{Eps: 0.2, Delta: 0.2, TMax: 1 << 16, Seed: 4, Model: diffusion.LT},
			"benefit=402c7eda0f0dfd29 samples=420 converged=true"},
		{"LT-fractional", 81, []graph.NodeID{3, 7}, EstimateOptions{Eps: 0.1, Delta: 0.1, TMax: 1 << 16, Seed: 8, Model: diffusion.LT, Fractional: true}, ""},
		{"rare", 91, []graph.NodeID{2}, EstimateOptions{Eps: 0.3, Delta: 0.3, TMax: 1 << 17, Seed: 11}, ""},
		{"capped", 61, []graph.NodeID{0}, EstimateOptions{Eps: 0.05, Delta: 0.05, TMax: 1001, Seed: 5},
			"benefit=401556b2826df854 samples=1001 converged=false"},
		{"capped-fractional", 71, []graph.NodeID{1}, EstimateOptions{Eps: 0.05, Delta: 0.05, TMax: 777, Seed: 6, Fractional: true},
			"benefit=4021aef3268c5aef samples=777 converged=false"},
		{"no-seeds", 61, nil, EstimateOptions{Eps: 0.2, Delta: 0.2, TMax: 95, Seed: 1}, ""},
		{"tiny", 91, []graph.NodeID{2, 4}, EstimateOptions{Eps: 0.5, Delta: 0.5, TMax: 3, Seed: 7}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, part := testInstance(t, tc.instance)
			want := estimateKey(sequentialEstimate(t, g, part, tc.seeds, tc.opts))
			if tc.golden != "" && want != tc.golden {
				t.Fatalf("reference loop: %s, golden %s", want, tc.golden)
			}
			for _, w := range estimateWorkers {
				opts := tc.opts
				opts.Workers = w
				got, err := EstimateCtx(context.Background(), g, part, tc.seeds, opts)
				if err != nil {
					t.Fatal(err)
				}
				if estimateKey(got) != want {
					t.Fatalf("workers=%d: %s, want %s", w, estimateKey(got), want)
				}
			}
		})
	}
}

// TestSolveGolden pins whole IMCAF solutions recorded from a
// single-threaded Estimate that ran every round's solver pass and
// check: parallel sampling and skipping the rounds that cannot certify
// must leave every seed, estimate and stop reason as it was, at any
// worker count.
func TestSolveGolden(t *testing.T) {
	cases := []struct {
		name     string
		instance uint64
		solver   maxr.Solver
		opts     Options
		want     string
	}{
		{"UBG/cap4096", 41, maxr.UBG{}, Options{K: 3, Eps: 0.3, Delta: 0.3, Seed: 77, MaxSamples: 1 << 12},
			"seeds=[12 7 17] chat=40335ad6b5ad6b5b est=40333b3d995e4428 samples=3968 doublings=2 stopped=stop-condition alpha=3fe43a54e4e98864 ratio=3feb38709feb95ac"},
		{"UBG/cap65536", 3, maxr.UBG{}, Options{K: 4, Eps: 0.3, Delta: 0.3, Seed: 7, MaxSamples: 1 << 16},
			"seeds=[19 26 5 15] chat=4033e82108421084 est=4033614e07a47fab samples=3968 doublings=2 stopped=stop-condition alpha=3fe43a54e4e98864 ratio=3feb80d093bdfbe7"},
		{"MAF/cap65536", 9, maxr.MAF{Seed: 5}, Options{K: 3, Eps: 0.3, Delta: 0.3, Seed: 5, MaxSamples: 1 << 16},
			"seeds=[4 9 3] chat=4031857bdef7bdf0 est=40316c4b8fe58661 samples=7936 doublings=3 stopped=stop-condition alpha=3fc5555555555555 ratio=3fea0b3ce8d990f9"},
		{"MB/cap8192", 9, maxr.MB{MAF: maxr.MAF{Seed: 2}, BT: maxr.BT{MaxRoots: 10}}, Options{K: 3, Eps: 0.3, Delta: 0.3, Seed: 2, MaxSamples: 1 << 13},
			"seeds=[4 9 8] chat=4032a4e739ce739d est=4032425e713a3488 samples=3968 doublings=2 stopped=stop-condition alpha=3fc7fca3d9aa05f7 ratio=3feaf10de59ac9e6"},
		{"UBG/nu", 21, maxr.UBG{}, Options{K: 3, Eps: 0.3, Delta: 0.3, Seed: 5, MaxSamples: 1 << 15, NuGuided: true},
			"seeds=[19 4 5] chat=4030ce94a5294a53 est=40354d273487c9ba samples=3968 doublings=2 stopped=stop-condition alpha=3fe43a54e4e98864 ratio=3fe93ae1a0efb3bc"},
		{"UBG/LT", 31, maxr.UBG{}, Options{K: 3, Eps: 0.3, Delta: 0.3, Seed: 9, MaxSamples: 1 << 15, Model: diffusion.LT},
			"seeds=[18 27 12] chat=402ebbbdef7bdef8 est=402e3f8b4d0bbcbd samples=7936 doublings=3 stopped=stop-condition alpha=3fe43a54e4e98864 ratio=3fe8c3537b3f9913"},
		{"UBG/samplecap", 41, maxr.UBG{}, Options{K: 3, Eps: 0.3, Delta: 0.3, Seed: 78, MaxSamples: 1 << 10},
			"seeds=[12 7 17] chat=4032fdef7bdef7be est=0 samples=992 doublings=0 stopped=sample-cap alpha=3fe43a54e4e98864 ratio=3feae2603c468cc2"},
		// Seed sets that influence nearly every sample certify at the
		// first round whose check can converge, so these two pin where
		// the skip rule stops skipping.
		{"MAF/k12", 61, maxr.MAF{Seed: 4}, Options{K: 12, Eps: 0.2, Delta: 0.2, Seed: 4, MaxSamples: 1 << 16},
			"seeds=[8 26 16 29 5 22 18 20 7 11 3 27] chat=403dffffffffffff est=403dfeccb39805ad samples=5332 doublings=1 stopped=stop-condition alpha=3ff0000000000000 ratio=3ff0000000000000"},
		{"UBG/k15", 9, maxr.UBG{}, Options{K: 15, Eps: 0.25, Delta: 0.2, Seed: 6, MaxSamples: 1 << 16},
			"seeds=[9 22 4 17 8 28 15 18 6 14 27 0 3 19 23] chat=403e000000000001 est=403dfdfffafd680b samples=3494 doublings=1 stopped=stop-condition alpha=3fe43a54e4e98864 ratio=3ff0000000000000"},
		{"MAF/eps0.2", 61, maxr.MAF{Seed: 3}, Options{K: 5, Eps: 0.2, Delta: 0.2, Seed: 3, MaxSamples: 1 << 15},
			"seeds=[11 0 8 3 1] chat=40321d3d4368aa8a est=403241d98b185d6c samples=10664 doublings=2 stopped=stop-condition alpha=3fd5555555555555 ratio=3feab8a7971712d4"},
	}
	for _, tc := range cases {
		g, part := testInstance(t, tc.instance)
		for _, w := range []int{1, 3} {
			opts := tc.opts
			opts.Workers = w
			sol, err := SolveCtx(context.Background(), g, part, tc.solver, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := solutionKey(sol); got != tc.want {
				t.Fatalf("%s workers=%d:\n got %s\nwant %s", tc.name, w, got, tc.want)
			}
		}
	}
}

// TestSolveSkipsRoundsThatCannotCertify checks the skip rule: every
// round whose stop check draws fewer than Λ′ samples, and that no cap
// ends, runs neither the solver nor Estimate; every other round runs
// the solver; and a check that would have run on a skipped round could
// indeed not have converged.
func TestSolveSkipsRoundsThatCannotCertify(t *testing.T) {
	g, part := testInstance(t, 61)
	counting := countingSolver{Solver: maxr.MAF{Seed: 3}}
	opts := Options{K: 5, Eps: 0.2, Delta: 0.2, Seed: 3, MaxSamples: 1 << 15}
	sol, err := SolveCtx(context.Background(), g, part, &counting, opts)
	if err != nil {
		t.Fatal(err)
	}
	skips := 0
	for _, r := range sol.Rounds {
		if r.Skipped {
			skips++
		}
	}
	if skips == 0 {
		t.Fatalf("no round was skipped: %+v", sol.Rounds)
	}
	if rounds := sol.Doublings + 1; counting.calls != rounds-skips {
		t.Fatalf("solver ran %d times over %d rounds with %d skipped", counting.calls, rounds, skips)
	}

	// The rule itself: Estimate cannot converge when TMax < Λ′, because
	// each sample adds at most 1 to the mass.
	for _, seeds := range [][]graph.NodeID{sol.Seeds, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}} {
		for _, fractional := range []bool{false, true} {
			lambda := stoppingThreshold(0.05, 0.01)
			est, err := EstimateCtx(context.Background(), g, part, seeds, EstimateOptions{
				Eps: 0.05, Delta: 0.01, TMax: int(lambda), Seed: 5, Fractional: fractional,
			})
			if err != nil {
				t.Fatal(err)
			}
			if est.Converged {
				t.Fatalf("Estimate converged within TMax=%d < Λ′=%g", int(lambda), lambda)
			}
		}
	}
}

// countingSolver counts selection passes.
type countingSolver struct {
	maxr.Solver
	calls int
}

func (c *countingSolver) SolveCtx(ctx context.Context, pool *ric.Pool, k int) (maxr.Result, error) {
	c.calls++
	return c.Solver.SolveCtx(ctx, pool, k)
}

// TestEstimateCancellation checks that a cancelled ctx is returned —
// before any sampling and mid-round — and that no worker outlives the
// call.
func TestEstimateCancellation(t *testing.T) {
	g, part := testInstance(t, 61)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EstimateCtx(ctx, g, part, []graph.NodeID{0}, EstimateOptions{Eps: 0.2, Delta: 0.2, TMax: 100, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}

	runtime.GC()
	before := runtime.NumGoroutine()
	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	// No seeds: the mass stays 0, so only cancellation can end this run
	// before its 2^30 samples.
	_, err := EstimateCtx(ctx, g, part, nil, EstimateOptions{Eps: 0.2, Delta: 0.2, TMax: 1 << 30, Seed: 1, Workers: 4})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-run: err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
	// Workers have called wg.Done by now but may still be unwinding.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d: worker leak", before, after)
	}
}

// TestEstimateRejectsOutOfRangeSeeds: a seed id outside [0, n) is an
// error naming the id, not silently dropped — before, {0, −5, n+7}
// returned exactly {0}'s estimate.
func TestEstimateRejectsOutOfRangeSeeds(t *testing.T) {
	g, part := testInstance(t, 3)
	n := graph.NodeID(g.NumNodes())
	opts := EstimateOptions{Eps: 0.2, Delta: 0.2, TMax: 1 << 12, Seed: 5}
	if _, err := EstimateCtx(context.Background(), g, part, []graph.NodeID{0}, opts); err != nil {
		t.Fatalf("valid seed set: %v", err)
	}
	for _, bad := range []graph.NodeID{-5, n, n + 7} {
		_, err := EstimateCtx(context.Background(), g, part, []graph.NodeID{0, bad}, opts)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("seed %d out of range", bad)) {
			t.Fatalf("seed %d: err = %v, want an out-of-range error", bad, err)
		}
	}
}

// BenchmarkEstimate measures one converging Alg. 6 run per op at one
// and two workers.
func BenchmarkEstimate(b *testing.B) {
	g, part := testInstance(b, 61)
	seeds := []graph.NodeID{0, 1, 2, 3, 4, 5}
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := EstimateCtx(context.Background(), g, part, seeds, EstimateOptions{Eps: 0.05, Delta: 0.05, TMax: 1 << 20, Seed: uint64(i), Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
