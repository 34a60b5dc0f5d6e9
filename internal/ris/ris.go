// Package ris solves classic influence maximization — the "IM" baseline
// of the paper's evaluation — as IMC on singleton communities.
//
// IM is IMC with one community per node, threshold 1 and benefit 1: a
// RIC sample of community {v} is v's RR (reverse-reachable) set (Borgs
// et al.), and ĉ_R(S) = n·Pr[S ∩ RR ≠ ∅] over the pool is the RR
// coverage estimate of S's spread. Both drivers therefore grow a
// ric.Pool over the singleton partition and select with
// maxr.GreedyNuCtx: at h = 1, ν̂_R = ĉ_R is coverage, so its CELF is
// the standard lazy greedy for max coverage, within 1−1/e−ε of IM.
package ris

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"imc/internal/clock"
	"imc/internal/community"
	"imc/internal/core"
	"imc/internal/diffusion"
	"imc/internal/graph"
	"imc/internal/maxr"
	"imc/internal/ric"
)

// Options configures the IM solver.
type Options struct {
	// K is the seed budget.
	K int
	// Eps, Delta are the approximation slack and failure probability
	// (defaults 0.2 each).
	Eps, Delta float64
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds generation parallelism; 0 = GOMAXPROCS.
	Workers int
	// Model selects IC (default) or LT reverse sampling.
	Model diffusion.Model
	// MaxSamples caps the RR pool (default 1<<20).
	MaxSamples int
	// Clock supplies timestamps for the Elapsed report; nil means the
	// real wall clock. Only reporting reads it — never sampling.
	Clock clock.Func
}

// Solution is the solver outcome.
type Solution struct {
	// Seeds is the selected seed set.
	Seeds []graph.NodeID
	// SpreadEstimate is the pool-based estimate of E[spread(Seeds)].
	SpreadEstimate float64
	// Samples is the final RR-pool size.
	Samples int
	// Elapsed is the wall-clock solve time.
	Elapsed time.Duration
}

// SolveCtx picks k seeds approximately maximizing expected influence
// spread using a stop-and-stare doubling schedule: grow the RR pool,
// greedily cover it, and stop once an independent stopping-rule
// estimate confirms the pool estimate. The doubling loop checks ctx per
// round and threads it into pool growth, selection and the
// stopping-rule verification.
//
//imc:longrun
func SolveCtx(ctx context.Context, g *graph.Graph, opts Options) (Solution, error) {
	opts, pool, err := newPool(g, opts)
	if err != nil {
		return Solution{}, err
	}
	now := clock.OrWall(opts.Clock)
	start := now()
	e3 := opts.Eps / 4
	lambda := (1 + e3) * (1 + e3) * 3 / (e3 * e3) * math.Log(3/(2*opts.Delta))
	if err := pool.EnsureCtx(ctx, int(math.Ceil(lambda))); err != nil {
		return Solution{}, err
	}
	var (
		seeds    []graph.NodeID
		coverage int
	)
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return Solution{}, err
		}
		if seeds, err = maxr.GreedyNuCtx(ctx, pool, opts.K); err != nil {
			return Solution{}, err
		}
		coverage = pool.CoverageCount(seeds)
		if float64(coverage) >= lambda {
			est, err := core.EstimateCtx(ctx, g, pool.Partition(), seeds, core.EstimateOptions{
				Eps:     e3,
				Delta:   opts.Delta / 3,
				TMax:    2 * pool.NumSamples(),
				Model:   opts.Model,
				Seed:    opts.Seed ^ 0xa5a5a5a5a5a5a5a5 ^ uint64(round)<<40,
				Workers: opts.Workers,
			})
			if err != nil {
				return Solution{}, err
			}
			if est.Converged && pool.Scale()*float64(coverage) <= (1+e3)*est.Benefit {
				break
			}
		}
		if pool.NumSamples()*2 > opts.MaxSamples {
			break
		}
		if err := pool.DoubleCtx(ctx); err != nil {
			return Solution{}, err
		}
	}
	return Solution{
		Seeds:          seeds,
		SpreadEstimate: pool.Scale() * float64(coverage),
		Samples:        pool.NumSamples(),
		Elapsed:        now().Sub(start),
	}, nil
}

// newPool validates opts, fills in its defaults, and returns them with
// an empty RR pool: a ric.Pool over g's singleton partition, whose
// sample of community {v} is v's RR set.
func newPool(g *graph.Graph, opts Options) (Options, *ric.Pool, error) {
	n := g.NumNodes()
	if opts.K < 1 {
		return opts, nil, fmt.Errorf("ris: K=%d must be ≥ 1", opts.K)
	}
	if opts.K > n {
		return opts, nil, fmt.Errorf("ris: K=%d exceeds node count %d", opts.K, n)
	}
	if opts.Eps == 0 {
		opts.Eps = 0.2
	}
	if opts.Delta == 0 {
		opts.Delta = 0.2
	}
	if opts.Eps <= 0 || opts.Eps >= 1 || opts.Delta <= 0 || opts.Delta >= 1 {
		return opts, nil, errors.New("ris: Eps and Delta must lie in (0, 1)")
	}
	if opts.Model == 0 {
		opts.Model = diffusion.IC
	}
	if opts.MaxSamples <= 0 {
		opts.MaxSamples = 1 << 20
	}
	nodes := make([]graph.NodeID, n)
	sets := make([][]graph.NodeID, n)
	for v := range nodes {
		nodes[v] = graph.NodeID(v)
		sets[v] = nodes[v : v+1 : v+1]
	}
	part, err := community.New(n, sets)
	if err != nil {
		return opts, nil, err
	}
	pool, err := ric.NewPool(g, part, ric.PoolOptions{Model: opts.Model, Seed: opts.Seed, Workers: opts.Workers})
	if err != nil {
		return opts, nil, err
	}
	return opts, pool, nil
}
