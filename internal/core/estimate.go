// Package core implements the paper's Section V: the IMC Algorithmic
// Framework (IMCAF, Alg. 5) that wraps any α-approximate MAXR solver
// into an α(1−ε)-approximate IMC algorithm with probability ≥ 1−δ, and
// the Estimate verification procedure (Alg. 6) built on the
// Dagum–Karp–Luby–Ross stopping rule.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"imc/internal/community"
	"imc/internal/diffusion"
	"imc/internal/graph"
	"imc/internal/ric"
	"imc/internal/xrand"
)

// estimateBlock is how many consecutive sample indices an Estimate
// worker claims at a time. Workers poll ctx once per block, never per
// sample, and a block of statistics is 256 bytes — whole cache lines —
// so workers filling different blocks do not write to a shared line.
const estimateBlock = 32

// estimateMaxRound caps how many samples Estimate draws between two
// scans of the stopping rule, so its statistics buffer never exceeds
// 128 KiB.
const estimateMaxRound = 1 << 14

// statBlock holds the per-sample statistics of one claimed block.
type statBlock [estimateBlock]float64

// EstimateResult is the outcome of the Estimate procedure. One is
// produced per stop-and-stare round; the layout is pinned waste-free
// (24 bytes, flag byte in the tail word's slack).
//
//imc:compact
type EstimateResult struct {
	// Benefit is the estimated c(S) (or ν(S) in fractional mode).
	Benefit float64
	// Samples is the number of RIC samples drawn.
	Samples int
	// Converged reports whether the stopping rule triggered before
	// TMax; a false value corresponds to Alg. 6 returning −1.
	Converged bool
}

// EstimateOptions configures the Estimate procedure.
type EstimateOptions struct {
	// Eps is ε′, the relative error target.
	Eps float64
	// Delta is δ′, the failure probability.
	Delta float64
	// TMax caps the number of samples (Alg. 6's T_max).
	TMax int
	// Model selects the propagation model for fresh samples.
	Model diffusion.Model
	// Seed drives the fresh sample stream.
	Seed uint64
	// Fractional switches the per-sample statistic from the 0/1
	// indicator X_g(S) to min(|I_g(S)|/h_g, 1) — estimating ν(S)
	// instead of c(S). Used by the ν-guided UBG stop rule.
	Fractional bool
	// Workers bounds sampling parallelism; 0 means GOMAXPROCS. The
	// result does not depend on it.
	Workers int
}

// EstimateCtx implements the paper's Alg. 6: draw fresh RIC samples
// until the influenced mass reaches the stopping-rule threshold,
// returning an estimate of c(S) with relative error ≤ ε′ with
// probability ≥ 1−δ′. Workers poll ctx once per block of estimateBlock
// draws (never per sample).
//
// Sampling runs on opts.Workers goroutines in rounds. Sample t is
// always drawn from PRNG stream t, and after each round the stopping
// rule scans the round's statistics in index order, adding them to the
// mass one at a time exactly as a single sequential loop would. The
// benefit, sample count and convergence flag are therefore identical
// at every worker count, down to the last bit of the fractional sum;
// only the samples drawn past the stopping point (see roundSize) and
// the wall time change.
//
//imc:longrun
func EstimateCtx(ctx context.Context, g *graph.Graph, part *community.Partition, seeds []graph.NodeID, opts EstimateOptions) (EstimateResult, error) {
	if opts.Eps <= 0 || opts.Eps >= 1 {
		return EstimateResult{}, fmt.Errorf("core: estimate eps %g out of (0, 1)", opts.Eps)
	}
	if opts.Delta <= 0 || opts.Delta >= 1 {
		return EstimateResult{}, fmt.Errorf("core: estimate delta %g out of (0, 1)", opts.Delta)
	}
	if opts.TMax < 1 {
		return EstimateResult{}, fmt.Errorf("core: estimate TMax %d must be ≥ 1", opts.TMax)
	}
	if err := ctx.Err(); err != nil {
		return EstimateResult{}, err
	}
	s, err := newSampler(g, part, seeds, opts)
	if err != nil {
		return EstimateResult{}, err
	}
	lambda := stoppingThreshold(opts.Eps, opts.Delta)
	mass := 0.0
	for t := 0; t < opts.TMax; {
		n := s.roundSize(lambda, mass, t, opts.TMax-t)
		if err := s.draw(ctx, t+1, n); err != nil {
			return EstimateResult{}, err
		}
		for j := 0; j < n; j++ {
			t++
			mass += s.blocks[j/estimateBlock][j%estimateBlock]
			if mass >= lambda {
				return EstimateResult{
					Benefit:   part.TotalBenefit() * lambda / float64(t),
					Samples:   t,
					Converged: true,
				}, nil
			}
		}
	}
	// Alg. 6 returns −1 here; we surface the best-effort mean with
	// Converged=false so callers can fall through to pool doubling.
	return EstimateResult{
		Benefit:   part.TotalBenefit() * mass / float64(opts.TMax),
		Samples:   opts.TMax,
		Converged: false,
	}, nil
}

// stoppingThreshold is Alg. 6's Λ′ = 1 + 4(e−2)·ln(2/δ′)·(1+ε′)/ε′²: the
// influenced mass at which the Dagum–Karp–Luby–Ross rule stops.
func stoppingThreshold(eps, delta float64) float64 {
	return 1 + 4*(math.E-2)*math.Log(2/delta)*(1+eps)/(eps*eps)
}

// sampler draws Alg. 6's per-sample statistics — the indicator X_g(S)
// or its fractional form — for one seed set, one generator per worker.
type sampler struct {
	root   *xrand.RNG
	inSeed []bool
	gens   []*ric.Generator
	// blocks receives one round's statistics: sample first+j of the
	// round lands in blocks[j/estimateBlock][j%estimateBlock]. It grows
	// to the largest round drawn.
	blocks     []statBlock
	fractional bool
}

func newSampler(g *graph.Graph, part *community.Partition, seeds []graph.NodeID, opts EstimateOptions) (*sampler, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	round := min(opts.TMax, estimateMaxRound)
	workers = min(workers, (round+estimateBlock-1)/estimateBlock)
	s := &sampler{
		root:       xrand.New(opts.Seed),
		inSeed:     make([]bool, g.NumNodes()),
		gens:       make([]*ric.Generator, workers),
		fractional: opts.Fractional,
	}
	for _, v := range seeds {
		if v < 0 || int(v) >= len(s.inSeed) {
			return nil, fmt.Errorf("core: estimate seed %d out of range [0, %d)", v, len(s.inSeed))
		}
		s.inSeed[v] = true
	}
	for w := range s.gens {
		gen, err := ric.NewGenerator(g, part, opts.Model)
		if err != nil {
			return nil, err
		}
		s.gens[w] = gen
	}
	return s, nil
}

// roundSize is how many samples the next round draws, given the mass
// drawn so far over the first drawn samples and the samples left
// before TMax. Fewer than ⌈Λ′ − mass⌉ samples cannot fire the rule, so a
// round of that size wastes nothing, and that is all a single worker
// draws. Parallel rounds speculate past it, to the samples the rule is
// still likely to need at the hit rate seen so far — taken at a
// two-sigma upper bound so the prediction rarely overshoots — and to
// at least one block per worker.
func (s *sampler) roundSize(lambda, mass float64, drawn, left int) int {
	need := lambda - mass
	n := math.Ceil(need)
	if workers := len(s.gens); workers > 1 {
		if drawn > 0 {
			rate := (mass + 2*math.Sqrt(mass) + 2) / float64(drawn)
			n = max(n, math.Floor(need/rate))
		}
		n = max(n, float64(workers*estimateBlock))
	}
	return max(1, int(min(n, float64(min(left, estimateMaxRound)))))
}

// draw fills the statistics of samples first..first+n−1 into s.blocks.
// Workers claim blocks in index order from a shared counter; the caller
// is worker 0. A cancelled ctx stops every worker at its next claim and
// is returned.
//
//imc:longrun
func (s *sampler) draw(ctx context.Context, first, n int) error {
	blocks := (n + estimateBlock - 1) / estimateBlock
	if blocks > len(s.blocks) {
		s.blocks = make([]statBlock, blocks)
	}
	workers := min(len(s.gens), blocks)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(gen *ric.Generator) {
			defer wg.Done()
			s.work(ctx, gen, &next, first, n)
		}(s.gens[w])
	}
	s.work(ctx, s.gens[0], &next, first, n)
	wg.Wait()
	return ctx.Err()
}

// work claims and fills blocks until the round is exhausted or ctx is
// cancelled.
//
//imc:longrun
func (s *sampler) work(ctx context.Context, gen *ric.Generator, next *atomic.Int64, first, n int) {
	for {
		lo := int(next.Add(1)-1) * estimateBlock
		if lo >= n || ctx.Err() != nil {
			return
		}
		s.fill(gen, &s.blocks[lo/estimateBlock], first+lo, min(estimateBlock, n-lo))
	}
}

// fill draws samples first..first+count−1 into out, sample first+j from
// PRNG stream first+j.
//
//imc:hotpath
func (s *sampler) fill(gen *ric.Generator, out *statBlock, first, count int) {
	root, inSeed := s.root, s.inSeed
	var rng xrand.RNG
	if s.fractional {
		for j := range out[:count] {
			root.SplitInto(uint64(first+j), &rng)
			out[j] = gen.FractionalInfluence(&rng, inSeed)
		}
		return
	}
	for j := range out[:count] {
		root.SplitInto(uint64(first+j), &rng)
		out[j] = 0
		if gen.Influenced(&rng, inSeed) {
			out[j] = 1
		}
	}
}
